import warnings

import numpy as np
import pytest
from fractions import Fraction
from scipy import integrate, stats

from lossorder.distributions import (
    CategoricalDistribution,
    Gamma,
    Gaussian,
    Gumbel,
    HistogramDistribution,
    LatticeDistribution,
    LossDistribution,
    ParametricDistribution,
    PiecewisePolyDensity,
    PointMass,
    SupportInterval,
    TruncatedDistribution,
    Weibull,
    truncate,
)
from lossorder.errors import (
    EmptyTruncation,
    InvalidOrder,
    MomentsUndefined,
    NoDensity,
)
from lossorder.kde import KernelDensityEstimate, fit
from lossorder.ordering import (
    Relation,
    compare,
    moment_sequence,
    tail_threshold,
)


class TestSupportInterval:
    def test_compactness(self):
        assert SupportInterval(1.0, 3.0).is_compact
        assert not SupportInterval(1.0, np.inf).is_compact

    def test_intersect(self):
        a = SupportInterval(1.0, 5.0)
        b = SupportInterval(3.0, np.inf)
        assert a.intersect(b) == SupportInterval(3.0, 5.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            SupportInterval(2.0, 1.0)


class TestCategorical:
    def make(self):
        return CategoricalDistribution(
            labels=("H", "M", "L"), ranks=(3.0, 2.0, 1.0), probs=(0.5, 0.3, 0.2)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(("H", "H"), (2.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            CategoricalDistribution(("H", "M"), (1.0, 2.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            CategoricalDistribution(("H", "M"), (2.0, 1.0), (0.6, 0.6))

    def test_pmf_and_cdf(self):
        d = self.make()
        assert d.pmf("M") == 0.3
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.2)
        assert d.cdf(2.5) == pytest.approx(0.5)
        assert d.cdf(3.0) == pytest.approx(1.0)
        assert d.sf(2.0) == pytest.approx(0.5)

    def test_no_density(self):
        with pytest.raises(NoDensity):
            self.make().pdf(2.0)

    def test_moment_matches_exact_arithmetic(self):
        d = self.make()
        for k in (1, 3, 7):
            exact = (
                Fraction(1, 2) * 3**k
                + Fraction(3, 10) * 2**k
                + Fraction(1, 5) * 1**k
            )
            assert np.exp(d.log_moment(k)) == pytest.approx(float(exact), rel=1e-12)

    def test_moment_order_validation(self):
        with pytest.raises(InvalidOrder):
            self.make().log_moment(0)
        with pytest.raises(InvalidOrder):
            self.make().log_moment(1.5)


def test_representation_without_moments_raises_not_implemented():
    class Bare(LossDistribution):
        pass

    with pytest.raises(NotImplementedError):
        Bare().log_moment(1)
    with pytest.raises(NotImplementedError):
        Bare().log_moments([1, 2])


class TestHistogram:
    def test_normalization_and_cdf(self):
        h = HistogramDistribution((1.0, 2.0, 5.0), (10, 30, 60))
        assert h.total == 100
        assert h.probs == pytest.approx((0.1, 0.3, 0.6))
        assert h.cdf(1.0) == pytest.approx(0.1)
        assert h.cdf(4.9) == pytest.approx(0.4)
        assert h.sf(5.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramDistribution((2.0, 1.0), (1, 1))
        with pytest.raises(ValueError):
            HistogramDistribution((1.0,), (0,))

    def test_moment(self):
        h = HistogramDistribution((2.0, 4.0), (1, 3))
        assert np.exp(h.log_moment(2)) == pytest.approx(0.25 * 4 + 0.75 * 16)


class TestPiecewisePoly:
    def test_uniform(self):
        u = PiecewisePolyDensity.uniform(1.0, 3.0)
        assert u.pdf(2.0) == pytest.approx(0.5)
        assert u.pdf(0.5) == 0.0
        assert u.cdf(2.0) == pytest.approx(0.5)
        # E[X^k] = (b^(k+1) - a^(k+1)) / ((k+1)(b-a))
        for k in (1, 2, 5):
            exact = (3.0 ** (k + 1) - 1.0) / ((k + 1) * 2.0)
            assert np.exp(u.log_moment(k)) == pytest.approx(exact, rel=1e-9)

    def test_step_across_zero(self):
        # density 0.1 on [-0.5, 0.5] and 0.36 on [0.5, 3]: the panels on the
        # positive side must break at 0.5 as well as at 0
        d = PiecewisePolyDensity([-0.5, 0.5, 3.0], [[0.1], [0.36]])
        for k in (1, 2, 7):
            exact = (
                Fraction(1, 10) * (Fraction(1, 2) ** (k + 1) - Fraction(-1, 2) ** (k + 1))
                + Fraction(9, 25) * (3 ** (k + 1) - Fraction(1, 2) ** (k + 1))
            ) / (k + 1)
            assert np.exp(d.log_moment(k)) == pytest.approx(float(exact), rel=1e-12)

    def test_triangular(self):
        # density (x-1)/2 on [1, 3]
        t = PiecewisePolyDensity([1.0, 3.0], [[-0.5, 0.5]])
        assert t.pdf(3.0) == pytest.approx(1.0)
        assert t.cdf(3.0) == pytest.approx(1.0)
        exact, _ = integrate.quad(lambda x: x * (x - 1) / 2, 1, 3)
        assert np.exp(t.log_moment(1)) == pytest.approx(exact, rel=1e-9)

    def test_derivative(self):
        t = PiecewisePolyDensity([1.0, 3.0], [[-0.5, 0.5]])
        assert t.derivative(2.0, 1) == pytest.approx(0.5)
        assert t.derivative(2.0, 2) == 0.0

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePolyDensity([0.0, 1.0], [[2.0]])  # integrates to 2
        with pytest.raises(ValueError):
            PiecewisePolyDensity([0.0, 1.0], [[-1.0, 2.0]])  # negative near 0

    def test_vectorised_equals_per_point(self):
        # a(x-1), a, a(5-x)^2 on [1, 2], [2, 4], [4, 5]; mass a * 17/6
        a = 6.0 / 17.0
        breaks = [1.0, 2.0, 4.0, 5.0]
        coefs = [[-a, a], [a], [25.0 * a, -10.0 * a, a]]
        d = PiecewisePolyDensity(breaks, coefs)
        polys = [np.polynomial.Polynomial(c) for c in coefs]
        antis = [p.integ() for p in polys]
        tops = [ad(hi) for ad, hi in zip(antis, breaks[1:])]
        # the mass above each breakpoint, summed from the top segment down
        above = [0.0]
        for top, ad, lo in reversed(list(zip(tops, antis, breaks[:-1]))):
            above.insert(0, above[0] + (top - ad(lo)))

        def seg(v):
            return min(max(int(np.searchsorted(breaks, v, side="right")) - 1, 0), 2)

        def pdf(v):
            val = polys[seg(v)](v)
            return max(val, 0.0) if breaks[0] <= v <= breaks[-1] else 0.0

        def sf(v):
            v = min(max(v, breaks[0]), breaks[-1])
            i = seg(v)
            return min(max((above[i + 1] + (tops[i] - antis[i](v))) / above[0], 0.0), 1.0)

        xs = np.concatenate([
            breaks, [0.0, 0.5, 5.5, 9.0, -np.inf, np.inf],
            np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
            np.random.default_rng(3).uniform(0.0, 6.0, 500),
        ])
        with np.errstate(invalid="ignore"):  # polyval takes inf * 0 at +-inf
            assert np.array_equal(d.pdf(xs), [pdf(v) for v in xs])
            assert np.array_equal(d.sf(xs), [sf(v) for v in xs])
            assert np.array_equal(d.cdf(xs), [1.0 - sf(v) for v in xs])
        assert d.pdf(3.0) == pdf(3.0) and np.ndim(d.pdf(3.0)) == 0
        assert d.sf(3.0) == sf(3.0) and np.ndim(d.sf(3.0)) == 0
        assert d.sf(np.array([])).shape == (0,)

    def test_pdf_off_the_support_does_not_warn(self):
        t = PiecewisePolyDensity([1.0, 2.0, 3.0], [[-1.0, 1.0], [3.0, -1.0]])
        xs = np.array([-np.inf, -1e308, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 1e308, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = t.pdf(xs)
            assert t.pdf(np.inf) == 0.0 and t.pdf(-np.inf) == 0.0
        # on the support the values are those of the segment polynomials
        inside = (xs >= 1.0) & (xs <= 3.0)
        polys = [np.polynomial.Polynomial(c) for c in ([-1.0, 1.0], [3.0, -1.0])]
        want = [max(polys[int(v >= 2.0)](v), 0.0) for v in xs[inside]]
        assert np.array_equal(got[inside], want)
        assert np.array_equal(got[~inside], np.zeros((~inside).sum()))


class TestParametric:
    def test_gamma_moment_closed_form_vs_quadrature(self):
        d = Gamma(3.5, 2.0)
        for k in (1, 2, 4):
            oracle, _ = integrate.quad(
                lambda x: x**k * stats.gamma(3.5, scale=2.0).pdf(x), 0, np.inf
            )
            assert np.exp(d.log_moment(k)) == pytest.approx(oracle, rel=1e-8)

    def test_weibull_moment_closed_form_vs_quadrature(self):
        d = Weibull(2.0, 3.0)
        for k in (1, 3):
            oracle, _ = integrate.quad(
                lambda x: x**k * stats.weibull_min(2.0, scale=3.0).pdf(x), 0, np.inf
            )
            assert np.exp(d.log_moment(k)) == pytest.approx(oracle, rel=1e-8)

    def test_gumbel_mean_and_variance(self):
        # minimum-extreme-value parametrisation: mean = a - γb, var = π²b²/6
        d = Gumbel(31.0063, 1.74346)
        m1 = np.exp(d.log_moment(1))
        m2 = np.exp(d.log_moment(2))
        assert m1 == pytest.approx(31.0063 - np.euler_gamma * 1.74346, rel=1e-4)
        assert m2 - m1**2 == pytest.approx(np.pi**2 * 1.74346**2 / 6, rel=1e-3)

    def test_gumbel_moment_with_negative_mass(self):
        # location small enough that a visible share of mass sits below 0;
        # the signed split must still reproduce the quadrature oracle
        d = Gumbel(6.19073, 2.06288)
        frozen = stats.gumbel_l(loc=6.19073, scale=2.06288)
        for k in (1, 2, 3):
            with np.errstate(over="ignore"):  # oracle pdf overflows far right
                oracle, _ = integrate.quad(
                    lambda x: x**k * frozen.pdf(x), -np.inf, np.inf
                )
            assert np.exp(d.log_moment(k)) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("a,b", [(31.0063, 1.74346), (6.27294, 2.20532), (6.19073, 2.06288)])
    def test_gumbel_moments_from_cumulants(self, a, b):
        # minimum-extreme-value cumulants: a - γb, then (-1)^n (n-1)! b^n ζ(n);
        # raw moments by m_n = Σ_j C(n-1, j-1) κ_j m_(n-j)
        import mpmath

        with mpmath.workdps(40):
            kappa = [None, a - mpmath.euler * b] + [
                (-1) ** n * mpmath.factorial(n - 1) * mpmath.mpf(b) ** n * mpmath.zeta(n)
                for n in range(2, 9)
            ]
            m = [mpmath.mpf(1)]
            for n in range(1, 9):
                m.append(sum(mpmath.binomial(n - 1, j - 1) * kappa[j] * m[n - j] for j in range(1, n + 1)))
            want = [float(mpmath.log(v)) for v in m[1:]]
        got = Gumbel(a, b).log_moments(np.arange(1, 9))
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_gaussian_moments(self):
        d = Gaussian(10.0, 2.0)
        assert np.exp(d.log_moment(1)) == pytest.approx(10.0, rel=1e-9)
        assert np.exp(d.log_moment(2)) == pytest.approx(104.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            Gumbel(0.0, -1.0)

    def test_nonpositive_moment_rejected(self):
        # centred gaussian: E[X] = 0, not representable in log-domain
        with pytest.raises(MomentsUndefined):
            Gaussian(0.0, 1.0).log_moment(1)


def _scipy_frozen(d):
    if d.family == "gumbel":
        return stats.gumbel_l(loc=d.a, scale=d.b)
    if d.family == "gamma":
        return stats.gamma(d.a, scale=d.b)
    if d.family == "weibull":
        return stats.weibull_min(d.a, scale=d.b)
    return stats.norm(d.a, d.b)


# the paper's six parameter sets, shapes below 1, and a Gaussian
FAMILY_CASES = [
    Gumbel(31.0063, 1.74346),
    Gumbel(32.0063, 1.74346),
    Gumbel(6.27294, 2.20532),
    Gumbel(6.19073, 2.06288),
    Gamma(260.345, 0.0373929),
    Weibull(20.0, 10.0),
    Gamma(0.5, 2.0),
    Weibull(0.5, 3.0),
    Gaussian(10.0, 2.0),
]


class TestFamilyFormulas:
    """The closed forms in FAMILIES agree with scipy.stats (which the library
    does not import, for its start-up cost)."""

    def grid(self, frozen):
        lower = frozen.support()[0]
        below = [-5.0, -1e-3] if lower == 0 else [frozen.ppf(1e-300) - 10.0]
        bulk = frozen.ppf([1e-6, 0.1, 0.5, 0.9]).tolist()
        tail = frozen.isf(1e-300)
        while frozen.sf(tail) > 0:  # push on until the survival underflows
            tail *= 2
        return np.array(below + [0.0] + bulk + [frozen.isf(1e-300), tail])

    @pytest.mark.parametrize("d", FAMILY_CASES, ids=repr)
    def test_matches_scipy_stats(self, d):
        frozen = _scipy_frozen(d)
        xs = self.grid(frozen)
        # the support bounds at 0 and 1, nan outside [0, 1]
        qs = np.array([0.0, 1e-300, 1e-18, 0.5, 1.0, -0.1, 1.5])
        assert frozen.sf(xs[-1]) == 0.0
        with np.errstate(over="ignore", divide="ignore"):
            for method, points in [
                ("pdf", xs), ("logpdf", xs), ("cdf", xs), ("sf", xs),
                ("ppf", qs), ("isf", qs),
            ]:
                want = getattr(frozen, method)(points)
                np.testing.assert_allclose(
                    getattr(d, method)(points), want, rtol=1e-12, atol=0,
                    err_msg=f"{d!r}.{method}",
                )
                for x, w in zip(points, want):
                    got = getattr(d, method)(x)
                    assert np.ndim(got) == 0
                    np.testing.assert_allclose(got, w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", FAMILY_CASES, ids=repr)
    def test_limits_at_plus_infinity(self, d):
        # scipy.stats gives nan for the density here (its forms reach inf - inf)
        assert d.pdf(np.inf) == 0.0
        assert d.logpdf(np.inf) == -np.inf
        assert d.cdf(np.inf) == 1.0
        assert d.sf(np.inf) == 0.0
        xs = np.array([d.isf(0.5), np.inf])
        assert d.pdf(xs)[1] == 0.0 and d.pdf(xs)[0] > 0
        assert d.logpdf(xs)[1] == -np.inf


class TestTruncated:
    def test_renormalization(self):
        base = Gamma(2.0, 1.0)
        t = truncate(base, 1.0, 4.0)
        mass = base.cdf(4.0) - base.cdf(1.0)
        assert t.renormalization == pytest.approx(mass)
        assert t.cdf(1.0) == pytest.approx(0.0)
        assert t.cdf(4.0) == pytest.approx(1.0)
        assert t.pdf(2.0) == pytest.approx(base.pdf(2.0) / mass)
        assert t.pdf(5.0) == 0.0

    def test_moment_vs_quadrature(self):
        base = Gamma(2.0, 1.0)
        t = truncate(base, 1.0, 4.0)
        mass = base.cdf(4.0) - base.cdf(1.0)
        oracle, _ = integrate.quad(lambda x: x**2 * base.pdf(x) / mass, 1.0, 4.0)
        assert np.exp(t.log_moment(2)) == pytest.approx(oracle, rel=1e-9)

    def test_open_left_window_of_any_base(self):
        # the lower end follows the x^k-weighted density down from 20
        k = fit(1.0 + np.random.default_rng(0).gamma(3.0, 2.0, 200))
        for order in (1, 2, 6):
            open_left = truncate(k, -np.inf, 20.0).log_moment(order)
            assert open_left == pytest.approx(truncate(k, -50.0, 20.0).log_moment(order), abs=1e-9)

    OPEN_ABOVE = {
        "gaussian [1, inf)": (Gaussian(10.0, 2.0), 1.0),
        "gaussian (-inf, inf)": (Gaussian(10.0, 2.0), -np.inf),
        "gumbel [1, inf)": (Gumbel(6.27294, 2.20532), 1.0),
    }

    @pytest.mark.parametrize("name", sorted(OPEN_ABOVE))
    def test_open_above_window_moments_match_mpmath(self, name):
        import mpmath

        base, lo = self.OPEN_ABOVE[name]
        got = truncate(base, lo, np.inf).log_moments(range(1, 65))
        assert np.all(np.isfinite(got))
        a, b = mpmath.mpf(base.a), mpmath.mpf(base.b)
        if base.family == "gaussian":
            def pdf(x):
                return mpmath.npdf(x, a, b)
        else:
            def pdf(x):
                z = (x - a) / b
                return mpmath.exp(z - mpmath.exp(z)) / b
        with mpmath.workdps(40):
            # beyond 40 scales the x^32-weighted density is below 1e-300
            nodes = [max(mpmath.mpf(lo), a - 40 * b), a, a + 10 * b, a + 40 * b]
            mass = mpmath.quad(pdf, nodes)
            for k in (1, 2, 8, 32):
                want = mpmath.log(mpmath.quad(lambda x: x**k * pdf(x), nodes) / mass)
                assert abs(got[k - 1] - float(want)) <= 1e-9, k

    def test_full_window_moments_are_the_base_closed_form(self):
        base = Gaussian(10.0, 2.0)
        ks = range(1, 65)
        got = truncate(base, -np.inf, np.inf).log_moments(ks)
        np.testing.assert_allclose(got, base.log_moments(ks), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("q", [0.5, 0.1, 1e-3])
    def test_open_left_window_isf_is_the_base_isf(self, q):
        # the window cuts off a base survival of about exp(-510) above 20
        base = Gumbel(6.27294, 2.20532)
        assert truncate(base, -np.inf, 20.0).isf(q) == pytest.approx(base.isf(q), rel=1e-12)

    def test_open_above_window_isf_starts_at_the_lower_end(self):
        # the search for the level goes up from the window's lower end 0,
        # not from 1, which lies above the median 0.5
        base = Gaussian(0.5, 0.1)
        t = truncate(base, 0.0, np.inf)
        assert t.isf(0.5) == pytest.approx(base.isf(0.5 * t.renormalization), rel=1e-12)

    def test_empty_window(self):
        with pytest.raises(EmptyTruncation):
            truncate(Gamma(2.0, 1.0), 1e6, 2e6)
        with pytest.raises(ValueError):
            truncate(Gamma(2.0, 1.0), 3.0, 2.0)


class TestPointMass:
    def test_basics(self):
        p = PointMass(4.0)
        assert p.cdf(3.9) == 0.0
        assert p.cdf(4.0) == 1.0
        assert np.exp(p.log_moment(3)) == pytest.approx(64.0)

    def test_minimum_loss(self):
        with pytest.raises(ValueError):
            PointMass(0.5)


class TestLattice:
    def geometric(self, q=0.5):
        return LatticeDistribution(
            lambda j: np.log(1 - q) + (j - 1) * np.log(q), lower=1
        )

    def test_pmf_and_cdf(self):
        g = self.geometric()
        assert g.pmf(1) == pytest.approx(0.5)
        assert g.cdf(3) == pytest.approx(1 - 0.5**3)
        assert g.quantile(0.9) == 4

    def test_truncated_renormalizes(self):
        g = self.geometric()
        t = g.truncated(1, 3)
        assert sum(t.probs) == pytest.approx(1.0)
        # masses keep their ratios: 4 : 2 : 1 over values 1, 2, 3
        values, probs = t.descending_pmf()
        assert values.tolist() == [3.0, 2.0, 1.0]
        assert probs == pytest.approx(np.array([1, 2, 4]) / 7.0)

    def test_cdf_takes_arrays(self):
        g = self.geometric()
        xs = np.array([[0.5, 1.0], [2.5, 3.0]])
        assert g.cdf(xs) == pytest.approx(np.array([[0.0, 0.5], [0.75, 0.875]]))
        assert np.ndim(g.cdf(3.0)) == 0

    def test_point_mass_pair_gets_certificate(self):
        # a strict verdict must be certifiable, and the certificate evaluates
        # the lattice's survival on a whole grid at once
        g = self.geometric()
        verdict = compare(g, PointMass(3.0))
        assert verdict.relation is Relation.SECOND_STRICT
        t = tail_threshold(g, PointMass(3.0), verdict)
        assert t.x0 == pytest.approx(3.0)
        assert all(s_point <= s_lattice for _, s_lattice, s_point in t.grid)

    def test_moment_matches_series(self):
        g = self.geometric()
        series = sum(j**2 * 0.5**j for j in range(1, 300))
        assert np.exp(g.log_moment(2)) == pytest.approx(series, rel=1e-10)


def test_histogram_survival_is_exact_at_the_ends():
    # summed from the top, the survival is exactly 0 from the largest atom
    # on and exactly 1 below the smallest
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        values = np.sort(rng.choice(np.arange(1, 50), n, replace=False)).astype(float)
        h = HistogramDistribution(tuple(values), tuple(int(c) for c in rng.integers(1, 1000, n)))
        assert h.sf(values[-1]) == 0.0 and h.sf(1e9) == 0.0
        assert h.sf(values[0] - 1.0) == 1.0
        assert h.cdf(np.inf) == 1.0


def test_descending_pmf_orders_worst_first():
    h = HistogramDistribution((1.0, 2.0, 3.0), (1, 2, 1))
    values, probs = h.descending_pmf()
    assert values.tolist() == [3.0, 2.0, 1.0]
    assert probs.tolist() == pytest.approx([0.25, 0.5, 0.25])


def _geometric_lattice():
    return LatticeDistribution(lambda j: np.log(0.5) + (j - 1) * np.log(0.5), lower=1)


REPRESENTATIONS = {
    "piecewise": PiecewisePolyDensity([1.0, 3.0], [[-0.5, 0.5]]),
    "truncated": truncate(Gaussian(10.0, 2.0), 1.0, 20.0),
    "histogram": HistogramDistribution((1.0, 2.0, 5.0), (10, 30, 60)),
    "categorical": CategoricalDistribution(("H", "M", "L"), (3.0, 2.0, 1.0), (0.5, 0.3, 0.2)),
    "point_mass": PointMass(4.0),
    "lattice": _geometric_lattice(),
    "kde": fit(1.0 + np.random.default_rng(3).gamma(3.0, 2.0, 30)),
    "kde_mixed_signs": fit([-3.0, -1.0, 0.0, 2.0, 5.0, 6.5]),
    "gumbel": Gumbel(6.27294, 2.20532),
    "gamma": Gamma(3.0, 2.0),
    "weibull": Weibull(2.0, 5.0),
    "gaussian": Gaussian(10.0, 2.0),
}


class TestRepresentationProtocol:
    """What the ordering rules ask of every representation."""

    @pytest.mark.parametrize("method", ["cdf", "sf", "logsf"])
    @pytest.mark.parametrize("name", REPRESENTATIONS)
    def test_nan_gives_nan(self, name, method):
        f = getattr(REPRESENTATIONS[name], method)
        assert np.isnan(f(np.nan))
        got = f(np.array([np.nan, 2.0, np.nan]))
        assert np.isnan(got).tolist() == [True, False, True]

    def test_survival_is_the_primitive(self):
        # each representation gives sf, and a cdf only as a closed form of
        # its own; the finite pmfs give neither, only descending_pmf()
        closed_form_cdf = {
            ParametricDistribution, KernelDensityEstimate, TruncatedDistribution, LatticeDistribution
        }
        for d in REPRESENTATIONS.values():
            cls = type(d)
            assert cls.sf is not LossDistribution.sf
            assert (cls.cdf is not LossDistribution.cdf) == (cls in closed_form_cdf)
        for cls in (CategoricalDistribution, HistogramDistribution, PointMass):
            assert not {"support", "pdf", "cdf", "sf"} & set(vars(cls))

    @pytest.mark.parametrize("q", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("name", REPRESENTATIONS)
    def test_isf_brackets_the_survival_level(self, name, q):
        d = REPRESENTATIONS[name]
        x = float(d.isf(q))
        delta = 1e-7 * max(1.0, abs(x))
        assert d.sf(x + delta) <= q <= d.sf(x - delta)

    @pytest.mark.parametrize("name", REPRESENTATIONS)
    def test_moment_sequence_matches_log_moment(self, name):
        d = REPRESENTATIONS[name]
        want = [d.log_moment(k) for k in range(1, 9)]
        np.testing.assert_allclose(moment_sequence(d, 8).log_moments, want, rtol=0, atol=1e-9)

    def test_truncated_derivative_is_the_renormalised_base(self):
        base = Gaussian(10.0, 2.0)
        t = truncate(base, 1.0, 20.0)
        for k in range(1, 7):
            assert t.derivative(20.0, k) == base.derivative(20.0, k) / t.renormalization
