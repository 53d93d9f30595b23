import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lossorder._quad import bisect
from lossorder.kde import fit
from lossorder.ordering import compare, tail_threshold


def _full_bisect(pred, lo, hi, steps):
    """Reference: every one of ``steps`` halvings, with no early stop."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _counted(pred):
    calls = []

    def wrapped(x):
        calls.append(x)
        return pred(x)

    return wrapped, calls


@pytest.mark.parametrize(
    "pred, lo, hi",
    [
        (lambda x: x < np.pi, 0.0, 10.0),
        (lambda x: x * x < 2.0, 1.0, 2.0),
        (lambda x: np.exp(-x) > 1e-9, 0.0, 100.0),
        (lambda x: x <= 1e-300, 0.0, 1.0),
        (lambda x: x < 5e-324, 0.0, 1e-320),
        (lambda x: x < 7.0, 7.0, 7.0),
        # contract broken: false at lo, or true at hi
        (lambda x: False, 0.0, 1.0),
        (lambda x: True, 0.0, 1.0),
        (lambda x: x > 0.5, 0.0, 1.0),
        (lambda x: x < 3.0, 4.0, 9.0),
        (lambda x: x < 3.0, -9.0, -4.0),
    ],
)
@pytest.mark.parametrize("steps", [0, 1, 10, 80, 200])
def test_bisect_equals_full_length_loop(pred, lo, hi, steps):
    counted, calls = _counted(pred)
    assert bisect(counted, lo, hi, steps) == _full_bisect(pred, lo, hi, steps)
    assert len(calls) <= steps


def test_bisect_stops_once_the_interval_collapses():
    counted, calls = _counted(lambda x: x < np.pi)
    lo, hi = bisect(counted, 0.0, 10.0, 200)
    assert lo < np.pi <= hi
    assert np.nextafter(lo, np.inf) == hi
    assert len(calls) < 70


#: the predicates above that hold up to a point and fail beyond it, or are
#: constant; ``np.asarray`` lets them answer arrays of points too
_TRUE_THEN_FALSE = [
    (lambda x: x < np.pi, 0.0, 10.0),
    (lambda x: x * x < 2.0, 1.0, 2.0),
    (lambda x: np.exp(-x) > 1e-9, 0.0, 100.0),
    (lambda x: x <= 1e-300, 0.0, 1.0),
    (lambda x: x < 5e-324, 0.0, 1e-320),
    (lambda x: x < 7.0, 7.0, 7.0),
    (lambda x: False, 0.0, 1.0),
    (lambda x: True, 0.0, 1.0),
    (lambda x: x < 3.0, 4.0, 9.0),
    (lambda x: x < 3.0, -9.0, -4.0),
]


@pytest.mark.parametrize("pred, lo, hi", _TRUE_THEN_FALSE)
def test_sixteen_point_cuts_equal_the_one_point_loop_run_to_collapse(pred, lo, hi):
    counted, calls = _counted(pred)
    assert bisect(counted, lo, hi, 10_000, points=16) == bisect(pred, lo, hi, 10_000)
    assert all(np.shape(x) == (16,) for x in calls)
    assert len(calls) < 300


def _check_ends(pred, lo, hi, points):
    a, b = bisect(pred, lo, hi, 10_000, points=points)
    assert lo <= a <= b <= hi
    assert np.all(pred(np.asarray(a))) and not np.any(pred(np.asarray(b)))
    return a, b


@pytest.mark.parametrize("points", [1, 2, 16])
def test_cuts_keep_the_ends_on_two_disjoint_intervals(points):
    def pred(x):
        return ((x >= 0.0) & (x < 1.0)) | ((x > 5.0) & (x < 6.0))

    _check_ends(pred, 0.5, 10.0, points)


def test_cuts_keep_the_ends_when_only_the_last_interior_point_holds():
    # on [0, 10] the 16 points are 10 j / 17: only the last, 9.41, holds
    def pred(x):
        return (x < 0.1) | ((x > 9.3) & (x < 9.9))

    a, b = _check_ends(pred, 0.0, 10.0, 16)
    assert 9.3 < a < 9.9


@given(
    pattern=st.lists(st.booleans(), min_size=1, max_size=64),
    points=st.integers(1, 24),
)
def test_cuts_keep_the_ends_for_any_pattern(pattern, points):
    """pred(x) reads a random true/false pattern over [0, 1), true at 0 and
    false from 1 on: the bracket keeps both answers, whatever the pattern."""
    table = np.array([True, *pattern, False])
    n = len(pattern) + 1

    def pred(x):
        return table[np.minimum(np.floor(np.asarray(x) * n), n).astype(int)]

    a, b = _check_ends(pred, 0.0, 1.0, points)
    assert b == np.nextafter(a, np.inf)


def test_kde_crossing_at_seed_2332_keeps_its_threshold():
    """The n = 100 pair of the kde-samples workload at seed 2332, round 0.
    Near its crossing the bulk predicate flips several times within a few
    ulps, so the cuts must settle on the same side of that noise."""
    rng = np.random.default_rng([2332, 0])

    def pair(n):
        return 1.0 + rng.gamma(3.0, 2.0, n), 1.0 + 4.0 * rng.weibull(2.0, n)

    pair(100)  # the workload's moment samples come first
    k1, k2 = (fit(s.tolist()) for s in pair(100))
    verdict = compare(k1, k2)
    t = tail_threshold(k1, k2, verdict)
    assert t.x0 == pytest.approx(1.2418804652215494, rel=1e-12, abs=0)
