"""Endpoint keys: compact losses with a common top, against mpmath.

On a common compact support the high moments are governed by the mass
nearest the top b: an atom at b is heavier than any density, a larger atom
heavier than a smaller one, and of two densities the one with the smaller
density at b is the lighter.  The oracles here compute the log density at b
of every family window from its parameters with ``mpmath``, which stays
finite where the window's ``pdf`` underflows.
"""

import itertools

import mpmath
import numpy as np
import pytest

from lossorder.distributions import (
    Gamma,
    Gaussian,
    Gumbel,
    HistogramDistribution,
    PiecewisePolyDensity,
    Weibull,
    truncate,
)
from lossorder import ordering
from lossorder.errors import EmptyTruncation
from lossorder.ordering import Relation, compare, tail_threshold

FAMILIES = {"gumbel": Gumbel, "gamma": Gamma, "weibull": Weibull, "gaussian": Gaussian}
#: log-uniform ranges of the two parameters of each family's windows
RANGES = {
    "gumbel": ((1.0, 40.0), (0.3, 20.0)),
    "gaussian": ((1.0, 40.0), (0.3, 20.0)),
    "gamma": ((0.5, 50.0), (0.1, 20.0)),
    "weibull": ((0.5, 20.0), (1.0, 40.0)),
}


def mp_forms(family, a, b):
    """log pdf, sf and cdf of a family member as mpmath functions of x."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if family == "gumbel":
        def z(x):
            return (x - a) / b
        return (
            lambda x: z(x) - mpmath.exp(z(x)) - mpmath.log(b),
            lambda x: mpmath.exp(-mpmath.exp(z(x))),
            lambda x: -mpmath.expm1(-mpmath.exp(z(x))),
        )
    if family == "gaussian":
        return (
            lambda x: mpmath.log(mpmath.npdf(x, a, b)),
            lambda x: mpmath.ncdf(-x, -a, b),
            lambda x: mpmath.ncdf(x, a, b),
        )
    if family == "gamma":
        return (
            lambda x: (a - 1) * mpmath.log(x / b) - x / b - mpmath.loggamma(a) - mpmath.log(b),
            lambda x: mpmath.gammainc(a, x / b, mpmath.inf, regularized=True),
            lambda x: mpmath.gammainc(a, 0, x / b, regularized=True),
        )
    return (
        lambda x: mpmath.log(a / b) + (a - 1) * mpmath.log(x / b) - (x / b) ** a,
        lambda x: mpmath.exp(-((x / b) ** a)),
        lambda x: -mpmath.expm1(-((x / b) ** a)),
    )


def mp_window(family, a, b, lo, hi):
    """log pdf, sf and cdf of the family member's window [lo, hi]."""
    logpdf, sf, cdf = mp_forms(family, a, b)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    # of two equal differences, take the one of the smaller tails
    if sf(lo) < 0.5:
        mass = sf(lo) - sf(hi)
    else:
        mass = cdf(hi) - cdf(lo)
    return (
        lambda x: logpdf(x) - mpmath.log(mass),
        lambda x: (sf(x) - sf(hi)) / mass if sf(x) < 0.5 else (cdf(hi) - cdf(x)) / mass,
        lambda x: (sf(lo) - sf(x)) / mass if sf(x) < 0.5 else (cdf(x) - cdf(lo)) / mass,
    )


def window_log_density_at_top(family, a, b):
    with mpmath.workdps(60):
        return float(mp_window(family, a, b, 1, 20)[0](mpmath.mpf(20)))


class TestReproducers:
    def test_a_window_is_lighter_than_an_atom_at_its_top(self):
        # the histogram's moments are the smaller up to k = 64, but its atom
        # of 16/35 at 20 makes them the larger from k of about 470 on
        window = truncate(Gaussian(29.896813330180066, 0.7119281472989604), 1, 20)
        histogram = HistogramDistribution((16, 20), (19, 16))
        v = compare(window, histogram)
        assert v.relation is Relation.FIRST_STRICT
        assert (v.decided_by, v.stabilization_index) == ("DerivativeLex", 0)
        assert compare(histogram, window).relation is Relation.SECOND_STRICT
        tail_threshold(window, histogram, v)

    def test_the_smaller_log_density_at_the_top_is_lighter(self):
        gumbel = (6.799326375976634, 0.590885837855697)
        weibull = (3.7073066198225986, 3.951647666750922)
        g, w = truncate(Gumbel(*gumbel), 1, 20), truncate(Weibull(*weibull), 1, 20)
        want_g = window_log_density_at_top("gumbel", *gumbel)
        want_w = window_log_density_at_top("weibull", *weibull)
        assert want_g == pytest.approx(-5.04e9, rel=1e-3)
        assert want_w == pytest.approx(-403.9, rel=1e-4)
        for d, want in ((g, want_g), (w, want_w)):
            assert d.logpdf(20.0) == pytest.approx(want, rel=1e-12)
            assert -d.endpoint_key()[2] == pytest.approx(want, rel=1e-12)
        v = compare(g, w)
        assert v.relation is Relation.FIRST_STRICT
        assert (v.decided_by, v.stabilization_index) == ("DerivativeLex", 0)
        tail_threshold(g, w, v)


@pytest.mark.parametrize(
    "family, a, b",
    [("gaussian", 10.583042641827, 1.212498489703142), ("gamma", 3.0, 2.0)],
)
def test_truncated_tails_are_exact_on_both_sides_of_the_median(family, a, b):
    # a difference of two base cdfs near the top (or of two survivals near
    # the bottom) would cancel to a relative error of up to 3 at 19.999; of
    # the smaller tails, it magnifies their few eps to about 1e-12
    t = truncate(FAMILIES[family](a, b), 1, 20)
    median = float(FAMILIES[family](a, b).isf(0.5))
    upper = np.concatenate([np.linspace(median, 19.9, 40), 20 - np.geomspace(0.1, 1e-3, 10)])
    lower = np.concatenate([1 + np.geomspace(1e-3, 0.1, 10), np.linspace(1.2, median, 40)])
    with mpmath.workdps(60):
        _, sf, cdf = mp_window(family, a, b, 1, 20)
        want_sf = np.array([float(sf(mpmath.mpf(x))) for x in upper])
        want_cdf = np.array([float(cdf(mpmath.mpf(x))) for x in lower])
    np.testing.assert_allclose(t.sf(upper), want_sf, rtol=1.5e-12, atol=0)
    np.testing.assert_allclose(t.cdf(lower), want_cdf, rtol=1.5e-12, atol=0)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def common_top_pool(seed):
    """(name, distribution, atom at 20, log density at 20) of 46 losses on
    [1, 20]: 8 windows of each family, 8 step densities and 6 histograms
    with an atom at 20."""
    rng = np.random.default_rng(seed)
    pool = []
    for family, ((alo, ahi), (blo, bhi)) in RANGES.items():
        windows = 0
        while windows < 8:
            a, b = _log_uniform(rng, alo, ahi), _log_uniform(rng, blo, bhi)
            try:
                window = truncate(FAMILIES[family](a, b), 1, 20)
            except EmptyTruncation:
                continue
            pool.append((f"{family}({a}, {b})", window, 0.0, window_log_density_at_top(family, a, b)))
            windows += 1
    for i in range(8):
        n = int(rng.integers(2, 6))
        breaks = np.concatenate([[1.0], np.sort(rng.choice(np.arange(2, 20), n - 1, replace=False)), [20.0]])
        heights = rng.uniform(0.1, 1.0, n)
        heights /= np.sum(heights * np.diff(breaks))
        steps = PiecewisePolyDensity(breaks, [[h] for h in heights])
        pool.append((f"steps{i}", steps, 0.0, float(np.log(heights[-1]))))
    for i in range(6):
        n = int(rng.integers(1, 11))
        values = [*np.sort(rng.choice(np.arange(1, 20), n, replace=False)).tolist(), 20]
        counts = rng.integers(1, 40, n + 1)
        histogram = HistogramDistribution(values, counts)
        pool.append((f"histogram{i}", histogram, counts[-1] / counts.sum(), -np.inf))
    return pool


def test_common_top_pool_follows_the_endpoint_oracle(monkeypatch):
    def no_moments(*args):
        raise AssertionError("compare computed moments")

    monkeypatch.setattr(ordering, "moment_sequence", no_moments)
    pool = common_top_pool(1)
    n = len(pool)
    preferred = np.zeros((n, n), dtype=int)
    for (i, (n1, d1, atom1, log1)), (j, (n2, d2, atom2, log2)) in itertools.permutations(
        enumerate(pool), 2
    ):
        v = compare(d1, d2)
        if atom1 != atom2:
            want = Relation.FIRST_STRICT if atom1 < atom2 else Relation.SECOND_STRICT
        else:
            want = Relation.FIRST_STRICT if log1 < log2 else Relation.SECOND_STRICT
        assert v.relation is want, (n1, n2, v)
        preferred[i, j] = v.relation is Relation.FIRST_STRICT
        tail_threshold(d1, d2, v)
    assert np.trace(np.linalg.matrix_power(preferred, 3)) == 0  # no 3-cycle
