import numpy as np
import pytest

from lossorder._quad import bisect


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
