import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp, ndtr

from lossorder import kde
from lossorder.distributions import _SQRT_2PI, Gaussian, norm_pdf
from lossorder.errors import EmptyData, MomentsUndefined, ThresholdNotFound
from lossorder.kde import (
    KernelDensityEstimate,
    compare_kdes,
    fit,
    hermite_he,
    silverman_bandwidth,
)
from lossorder.ordering import Relation, compare, tail_threshold


class TestHermite:
    def test_low_orders(self):
        u = np.array([-1.0, 0.0, 2.0])
        assert hermite_he(u, 0) == pytest.approx([1.0, 1.0, 1.0])
        assert hermite_he(u, 1) == pytest.approx(u)
        assert hermite_he(u, 2) == pytest.approx(u**2 - 1)
        assert hermite_he(u, 3) == pytest.approx(u**3 - 3 * u)

    def test_recurrence_consistency(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=20)
        for k in range(2, 10):
            lhs = hermite_he(u, k)
            rhs = u * hermite_he(u, k - 1) - (k - 1) * hermite_he(u, k - 2)
            assert lhs == pytest.approx(rhs)


class TestBandwidth:
    def test_rule_of_thumb(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sd = x.std(ddof=1)
        iqr = np.percentile(x, 75) - np.percentile(x, 25)
        expect = 0.9 * min(sd, iqr / 1.34) * 5 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expect)

    def test_constant_sample_falls_back_to_mean(self):
        h = silverman_bandwidth([4.0, 4.0, 4.0])
        assert h == pytest.approx(0.9 * 4.0 * 3 ** (-0.2))

    def test_all_zero_falls_back_to_one(self):
        assert silverman_bandwidth([0.0, 0.0]) == 1.0

    def test_scale_equivariance(self):
        x = [2.0, 5.0, 7.0, 11.0, 13.0]
        h = silverman_bandwidth(x)
        assert silverman_bandwidth([3.0 * v for v in x]) == pytest.approx(3.0 * h)


class TestEstimate:
    def make(self):
        return KernelDensityEstimate((2.0, 3.0, 5.0, 6.0), 0.8)

    def test_density_integrates_to_one(self):
        k = self.make()
        total, _ = integrate.quad(k.pdf, -10, 20, limit=200)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_cdf_sf_consistency(self):
        k = self.make()
        for x in (1.0, 3.5, 7.0):
            assert k.cdf(x) + k.sf(x) == pytest.approx(1.0)
        assert k.cdf(4.0) == pytest.approx(
            integrate.quad(k.pdf, -10, 4.0, limit=200)[0], rel=1e-8
        )

    def test_logpdf_matches_pdf(self):
        k = self.make()
        xs = np.linspace(0, 8, 9)
        assert np.exp(k.logpdf(xs)) == pytest.approx(k.pdf(xs))

    def test_isf_inverts_sf(self):
        k = self.make()
        for q in (0.5, 0.1, 1e-4):
            assert k.sf(k.isf(q)) == pytest.approx(q, rel=1e-9)

    def test_derivative_matches_finite_differences(self):
        k = self.make()
        x, s = 3.3, 0.8 * 5e-3
        f = k.pdf
        fd = {
            1: (f(x + s) - f(x - s)) / (2 * s),
            2: (f(x + s) - 2 * f(x) + f(x - s)) / s**2,
            3: (f(x + 2 * s) - 2 * f(x + s) + 2 * f(x - s) - f(x - 2 * s)) / (2 * s**3),
            4: (f(x + 2 * s) - 4 * f(x + s) + 6 * f(x) - 4 * f(x - s) + f(x - 2 * s)) / s**4,
        }
        for order, approx in fd.items():
            assert k.derivative(x, order) == pytest.approx(approx, rel=1e-4)

    def test_moment_vs_quadrature(self):
        k = self.make()
        for order in (1, 2, 5):
            oracle, _ = integrate.quad(
                lambda x: x**order * k.pdf(x), -10, 30, limit=200
            )
            assert np.exp(k.log_moment(order)) == pytest.approx(oracle, rel=1e-7)

    def test_effective_upper_bound(self):
        k = self.make()
        assert k.effective_upper_bound() == pytest.approx(6.8)

    def test_shifted_keeps_bandwidth(self):
        k = self.make().shifted(10.0)
        assert k.bandwidth == 0.8
        assert min(k.samples) == 12.0

    def test_single_sample(self):
        k = KernelDensityEstimate((3.0,), 1.0)
        assert k.effective_upper_bound() == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(EmptyData):
            KernelDensityEstimate((), 1.0)
        with pytest.raises(ValueError):
            KernelDensityEstimate((1.0,), 0.0)


class TestCompare:
    def test_self_comparison_equivalent(self):
        k = fit([2.0, 3.0, 5.0])
        assert compare_kdes(k, k).relation is Relation.EQUIVALENT

    def test_lower_effective_bound_preferred(self):
        base = [3.0, 4.0, 5.0, 6.0]
        k1 = fit(base)
        k2 = fit(base + [9.0])  # high outlier pushes the bound up
        v = compare_kdes(k1, k2)
        assert v.relation is Relation.FIRST_STRICT
        assert v.decided_by == "TailAsymptotics"

    def test_verdict_invariant_under_common_scaling(self):
        a = [3.0, 4.5, 5.0, 7.0]
        b = [3.5, 4.0, 6.5, 8.0]
        v1 = compare_kdes(fit(a), fit(b))
        v2 = compare_kdes(fit([10 * x for x in a]), fit([10 * x for x in b]))
        assert v1.relation is v2.relation

    @pytest.mark.parametrize("samples", [[-5.0, -4.0, -3.0], [0.2, 0.5, 0.7]])
    def test_equal_bounds_at_or_below_one(self, samples):
        # the common bound is below 1, so the window is taken after the shift
        # that puts the pooled sample minimum at 1
        assert fit(samples).effective_upper_bound() <= 1.0
        assert compare(fit(samples), fit(samples)).relation is Relation.EQUIVALENT

    def test_equal_bounds_decided_by_derivatives(self):
        # same max and same bandwidth, different shape below the bound
        k1 = KernelDensityEstimate((2.0, 3.0, 6.0), 0.5)
        k2 = KernelDensityEstimate((5.0, 5.5, 6.0), 0.5)
        v = compare_kdes(k1, k2)
        assert v.decided_by == "TailAsymptotics"
        assert v.relation is Relation.FIRST_STRICT

    def test_keys_overrule_the_effective_bound(self):
        # the first ends lower (10 + 3 < 12.5 + 1), but its wider kernels
        # give it the heavier tail
        k1 = KernelDensityEstimate(tuple(np.linspace(2.0, 10.0, 20)), 3.0)
        k2 = KernelDensityEstimate(tuple(np.linspace(2.0, 12.5, 20)), 1.0)
        assert k1.effective_upper_bound() < k2.effective_upper_bound()
        v = compare(k1, k2)
        assert (v.relation, v.decided_by) == (Relation.SECOND_STRICT, "TailAsymptotics")
        assert compare(k2, k1).relation is Relation.FIRST_STRICT

    @pytest.mark.parametrize(
        "first, second",
        [((2.0, 3.0, 6.0), (5.0, 5.5, 6.0)), ((1.0, 2.0, 6.0, 6.0), (3.0, 6.0))],
    )
    def test_tied_keys_ordered_by_centres(self, first, second):
        # one bandwidth, one top sample, one share there: the keys tie, and
        # the first has the smaller share at the largest centre below
        k1, k2 = KernelDensityEstimate(first, 0.5), KernelDensityEstimate(second, 0.5)
        assert k1.tail_key() == pytest.approx(k2.tail_key())
        v = compare(k1, k2)
        assert (v.relation, v.decided_by) == (Relation.FIRST_STRICT, "TailAsymptotics")
        assert compare(k2, k1).relation is Relation.SECOND_STRICT
        t = tail_threshold(k1, k2, v)
        assert all(s1 <= s2 for _, s1, s2 in t.grid)

    def test_same_samples_in_any_order_equivalent(self):
        k1 = KernelDensityEstimate((4.0, 2.0, 4.0, 7.0), 0.6)
        k2 = KernelDensityEstimate((7.0, 4.0, 4.0, 2.0), 0.6)
        v = compare(k1, k2)
        assert (v.relation, v.decided_by) == (Relation.EQUIVALENT, "TailAsymptotics")


#: perfbench's slack between log survivals
LOG_SLACK = 2e-6


def test_random_fitted_pairs_follow_the_keys_and_certify_truly():
    """Two fitted KDEs: the smaller bandwidth is the lighter tail, whatever
    the effective bounds say.  A certificate must hold in log survivals
    past its last row too; a pair whose survivals cross beyond the bulk
    grid gets no certificate rather than a false one."""
    rng = np.random.default_rng(7)
    certified = not_found = 0
    for _ in range(300):
        n1, n2 = rng.integers(5, 200, 2)
        a = 1 + rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.5, 5), n1)
        b = 1 + rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.5, 5), n2)
        k1, k2 = fit(a), fit(b)
        v = compare(k1, k2)
        assert v.preferred_index == int(k2.bandwidth < k1.bandwidth)
        try:
            t = tail_threshold(k1, k2, v)
        except ThresholdNotFound:
            not_found += 1
            continue
        shift = 1.0 - min(a.min(), b.min())
        pref, other = (k.shifted(shift) for k in ((k1, k2), (k2, k1))[v.preferred_index])
        xs = t.grid[-1][0] * np.geomspace(1 + 1e-9, 1e4, 400)
        assert np.all(pref.logsf(xs) - other.logsf(xs) <= LOG_SLACK)
        certified += 1
    assert certified >= 267 and certified + not_found == 300


def test_fit_empty_rejected():
    with pytest.raises(EmptyData):
        fit([])


def _exact_mixture_moment(centers, h, k):
    """E[X^k] of the equal-weight mixture of N(c, h^2), in exact rationals:
    (1/n) sum_i sum_{j even} C(k, j) c_i^(k-j) h^j (j-1)!!."""
    total = Fraction(0)
    for c in map(Fraction, centers):
        for j in range(0, k + 1, 2):
            double_factorial = math.prod(range(j - 1, 0, -2))
            total += math.comb(k, j) * c ** (k - j) * Fraction(h) ** j * double_factorial
    return total / len(centers)


# (centres, h): Gaussians are one-centre mixtures
MIXTURES = {
    "gaussian(10, 2)": ((10.0,), 2.0),
    "gaussian(-5, 2)": ((-5.0,), 2.0),
    "gaussian(0, 1)": ((0.0,), 1.0),
    "gaussian(900, 150)": ((900.0,), 150.0),
    "kde mixed signs": ((-3.0, -1.0, 0.0, 2.0, 5.0), 0.7),
    "kde negative": ((-4.0, -2.5, -1.0), 0.9),
    "kde with zero": ((0.0, 0.0, 1.5, 3.25), 0.4),
    "kde seeded": (tuple(1.0 + np.random.default_rng(1).gamma(3.0, 2.0, 25)), 1.3),
}


@pytest.mark.parametrize("name", MIXTURES)
def test_mixture_moments_match_exact_rationals(name):
    centers, h = MIXTURES[name]
    d = Gaussian(centers[0], h) if len(centers) == 1 else KernelDensityEstimate(centers, h)
    for k in range(1, 21):
        exact = _exact_mixture_moment(centers, h, k)
        if exact <= 0:
            with pytest.raises(MomentsUndefined):
                d.log_moment(k)
            continue
        want = math.log(exact.numerator) - math.log(exact.denominator)
        assert abs(d.log_moment(k) - want) <= 1e-12, k


def test_moments_memory_is_linear_in_samples():
    samples = 1.0 + np.random.default_rng(4).gamma(3.0, 2.0, 400)
    tracemalloc.start()
    try:
        fit(samples).log_moments(range(1, 65))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _one_matrix(k, x):
    """The four kernel sums from one (len(x) x n) matrix, unblocked."""
    u = (x[:, None] - np.asarray(k.samples)[None, :]) / k.bandwidth
    return {
        "pdf": norm_pdf(u).mean(axis=1) / k.bandwidth,
        "logpdf": logsumexp(-0.5 * u * u, axis=1)
        - np.log(k.n * k.bandwidth * _SQRT_2PI),
        "cdf": ndtr(u).mean(axis=1),
        "sf": ndtr(-u).mean(axis=1),
    }


@pytest.mark.parametrize("n", [1, 7, 100, 2000])
def test_blocked_kernel_sums_equal_one_matrix(n):
    rng = np.random.default_rng(n)
    k = fit(1.0 + rng.gamma(3.0, 2.0, n))
    rows = kde._BLOCK_TERMS // n
    for length in (1, rows - 1, rows, rows + 1, 4097):
        if length < 1:
            continue
        x = np.linspace(-5.0, 40.0, length)
        want = _one_matrix(k, x)
        for name, ref in want.items():
            got = getattr(k, name)(x)
            assert got.shape == x.shape
            assert np.array_equal(got, ref), (n, length, name)
    scalar = k.sf(3.0)
    assert np.ndim(scalar) == 0
    assert scalar == _one_matrix(k, np.array([3.0]))["sf"][0]


def _traced(fn):
    """fn()'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_threshold_memory_is_linear_in_samples():
    rng = np.random.default_rng(5)
    k1 = fit(1.0 + rng.gamma(3.0, 2.0, 5000))
    k2 = fit(1.0 + 4.0 * rng.weibull(2.0, 5000))
    v = compare(k1, k2)
    _, peak = _traced(lambda: tail_threshold(k1, k2, v))
    assert peak < 16 * 2**20


def test_ladder_on_kde_memory_is_linear_in_samples():
    # heavier-than-Gaussian samples: the truncation ladder integrates logpdf
    k = fit(1.0 + np.random.default_rng(5).gamma(3.0, 2.0, 1000))
    v, peak = _traced(lambda: compare(k, Gaussian(10.0, 2.0)))
    assert v.decided_by == "TailAsymptotics"
    assert peak < 32 * 2**20
