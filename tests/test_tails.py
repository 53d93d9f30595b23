"""Tail keys, log survivals and far-tail certificates against mpmath.

The oracles here never ask ``lossorder`` for a survival value: every log
survival is computed from the parameters with ``mpmath`` (or, to locate a
crossing before ``mpmath`` refines it, with ``scipy.special``).
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy.special import gammaincc, log_ndtr

from lossorder.distributions import (
    Gamma,
    Gaussian,
    Gumbel,
    PiecewisePolyDensity,
    PointMass,
    TailKey,
    Weibull,
    truncate,
)
from lossorder.kde import KernelDensityEstimate
from lossorder.ordering import Relation, compare, tail_threshold

#: mpmath digits: enough for log-survival differences at x = 1e30
DPS = 250
LN_1E1000 = 1000 * math.log(10)


# --- mpmath log survivals, one factory per representation -----------------

def mp_gumbel(a, b):
    return lambda x: -mpmath.exp((mpmath.mpf(x) - a) / b)


def mp_weibull(c, lam):
    return lambda x: -((mpmath.mpf(x) / lam) ** c) if x > 0 else mpmath.mpf(0)


def mp_gamma(a, theta):
    def f(x):
        if x <= 0:
            return mpmath.mpf(0)
        return mpmath.log(mpmath.gammainc(a, mpmath.mpf(x) / theta, mpmath.inf, regularized=True))

    return f


def mp_gaussian(mu, sigma):
    return lambda x: mpmath.log(mpmath.erfc((mpmath.mpf(x) - mu) / (sigma * mpmath.sqrt(2))) / 2)


def mp_mixture(centres, h):
    def f(x):
        terms = [mp_gaussian(c, h)(x) for c in centres]
        top = max(terms)
        return top + mpmath.log(sum(mpmath.exp(t - top) for t in terms)) - mpmath.log(len(centres))

    return f


def mp_from_below(base, lo):
    """Base conditioned on [lo, inf)."""
    log_mass = base(lo)
    return lambda x: base(max(mpmath.mpf(x), mpmath.mpf(lo))) - log_mass


def mp_key_value(key, x):
    """-log sf(x) as the key's terms give it."""
    x = mpmath.mpf(x)
    value = key.coef * x**key.power + key.x_coef * x + key.log_x * mpmath.log(x) + key.const
    if key.rate:
        value += mpmath.exp(key.log_coef + key.rate * x)
    return value


def _cases():
    """(name, distribution, mpmath log survival)."""
    tied = KernelDensityEstimate((1.0, 2.5, 4.0, 7.0, 7.0, 7.0), 0.8)
    return [
        ("gumbel_ex1a", Gumbel(31.0063, 1.74346), mp_gumbel(31.0063, 1.74346)),
        ("gumbel_ex2b", Gumbel(6.19073, 2.06288), mp_gumbel(6.19073, 2.06288)),
        ("weibull_2_5", Weibull(2.0, 5.0), mp_weibull(2.0, 5.0)),
        ("weibull_ex3", Weibull(20.0, 10.0), mp_weibull(20.0, 10.0)),
        ("weibull_half", Weibull(0.5, 3.0), mp_weibull(0.5, 3.0)),
        ("gamma_3_2", Gamma(3.0, 2.0), mp_gamma(3.0, 2.0)),
        ("gamma_ex3", Gamma(260.345, 0.0373929), mp_gamma(260.345, 0.0373929)),
        ("gamma_half", Gamma(0.5, 2.0), mp_gamma(0.5, 2.0)),
        ("gaussian_10_2", Gaussian(10.0, 2.0), mp_gaussian(10.0, 2.0)),
        ("gaussian_neg", Gaussian(-3.0, 0.5), mp_gaussian(-3.0, 0.5)),
        ("kde_tied_max", tied, mp_mixture(tied.samples, tied.bandwidth)),
        ("gamma_from_3", truncate(Gamma(3.0, 2.0), 3.0, np.inf), mp_from_below(mp_gamma(3.0, 2.0), 3.0)),
        ("gaussian_from_9", truncate(Gaussian(10.0, 2.0), 9.0, np.inf),
         mp_from_below(mp_gaussian(10.0, 2.0), 9.0)),
    ]


CASES = _cases()


def _depth_point(logsf, guess, depth=LN_1E1000):
    """x where the mpmath log survival is -depth (sf = 1e-1000 by default)."""
    return mpmath.findroot(lambda x: logsf(x) + depth, mpmath.mpf(guess), solver="secant")


def _guess(d, depth=LN_1E1000):
    """A start for the root search from the key's leading term."""
    key = d.tail_key()
    if key.rate:
        return (math.log(depth) - key.log_coef) / key.rate
    return (depth / key.coef) ** (1.0 / key.power)


class TestTailKeys:
    @pytest.mark.parametrize("name,d,logsf", CASES, ids=[c[0] for c in CASES])
    def test_key_matches_mpmath_at_sf_1e_minus_1000(self, name, d, logsf):
        residuals = []
        with mpmath.workdps(60):
            for depth in (LN_1E1000, 10 * LN_1E1000):
                x = _depth_point(logsf, _guess(d, depth), depth)
                residuals.append(float(mp_key_value(d.tail_key(), x) + logsf(x)))
        # the key drops only terms that vanish as x -> inf: Gamma's
        # (a - 1) / z and the Gaussian's mu / x are the largest, below 0.25
        # at sf = 1e-1000, and ten times deeper they have shrunk
        near, deep = residuals
        assert abs(near) < 0.25, residuals
        # (exact keys leave only the rounding of their coefficients)
        assert abs(deep) <= max(abs(near) / 2, 1e-14 * 10 * LN_1E1000), residuals

    def test_key_is_a_plain_float_tuple(self):
        for _, d, _ in CASES:
            key = d.tail_key()
            assert isinstance(key, TailKey) and len(key) == 7
            assert all(isinstance(v, float) for v in key)

    def test_tied_maxima_enter_the_constant(self):
        one = KernelDensityEstimate((1.0, 2.0, 7.0), 0.8).tail_key()
        three = KernelDensityEstimate((1.0, 7.0, 7.0), 0.8).tail_key()
        assert three.const == pytest.approx(one.const - math.log(2.0), abs=1e-12)
        assert three[:-1] == one[:-1]

    def test_keys_tie_only_to_1e_minus_12(self):
        base = Gumbel(5.0, 1.0)
        v = compare(base, Gumbel(5.0, 1.0 + 1e-9))
        assert (v.relation, v.decided_by) == (Relation.FIRST_STRICT, "TailAsymptotics")
        assert compare(base, Gumbel(5.0, 1.0 + 1e-14)).decided_by == "TruncationLadder"

    def test_only_lower_truncations_have_keys(self):
        g = Gamma(3.0, 2.0)
        assert truncate(g, 1.0, 30.0).tail_key() is None
        assert truncate(Gaussian(10.0, 2.0), -np.inf, np.inf).tail_key() is None
        assert truncate(g, 1.0, np.inf).tail_key() is not None
        assert PiecewisePolyDensity.uniform(1.0, 2.0).tail_key() is None


class TestLogSurvival:
    @pytest.mark.parametrize("name,d,logsf", CASES, ids=[c[0] for c in CASES])
    def test_logsf_matches_mpmath_far_out(self, name, d, logsf):
        with mpmath.workdps(60):
            deep = float(_depth_point(logsf, _guess(d)))
            xs = np.concatenate([np.linspace(-5.0, 40.0, 19), np.geomspace(deep / 4, deep * 4, 9)])
            want = np.array([float(logsf(x)) for x in xs])
        got = d.logsf(xs)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 260.345, 1000.0])
    def test_gamma_continued_fraction_region(self, a):
        theta = 0.7
        z = np.geomspace(a + 60.0 * math.sqrt(a) + 700.0, 1e10, 40)
        assert np.all(gammaincc(a, z) < 1e-280)  # every point is past the floor
        with mpmath.workdps(40):
            want = np.array([float(mp_gamma(a, theta)(v * theta)) for v in z])
        got = Gamma(a, theta).logsf(z * theta)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_gamma_logsf_continuous_across_the_floor(self):
        d = Gamma(3.0, 1.0)
        x = np.linspace(640.0, 660.0, 2001)
        steps = np.diff(d.logsf(x))
        assert np.all(steps < 0)
        assert np.ptp(steps) < 1e-4  # slope about -1 + 2/x throughout

    def test_scalar_in_scalar_out(self):
        for _, d, _ in CASES:
            assert np.ndim(d.logsf(5.0)) == 0

    def test_default_is_log_of_sf(self):
        u = PiecewisePolyDensity.uniform(1.0, 3.0)
        assert u.logsf(2.0) == pytest.approx(math.log(0.5))
        assert u.logsf(3.0) == -np.inf


def _key_gaps_clear(d1, d2):
    """Every key term equal, or apart by far more than the tie tolerance,
    and by more than the 250-digit oracle resolves at x = 1e30 (a location
    of 1e-308 against 0 would move a Gumbel's log survival by 1e-308)."""
    for a, b in zip(d1.tail_key(), d2.tail_key()):
        if a != b and abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)):
            return False
    return True


_MP = {"gumbel": mp_gumbel, "gamma": mp_gamma, "weibull": mp_weibull, "gaussian": mp_gaussian}
_MAKE = {"gumbel": Gumbel, "gamma": Gamma, "weibull": Weibull, "gaussian": Gaussian}
_member = st.one_of(
    st.tuples(st.just("gumbel"), st.floats(-20.0, 50.0), st.floats(0.2, 10.0)),
    st.tuples(st.just("gamma"), st.sampled_from([0.5, 1.0, 2.0, 3.5, 10.0, 260.345]), st.floats(0.05, 10.0)),
    st.tuples(st.just("weibull"), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 20.0]), st.floats(0.5, 20.0)),
    st.tuples(st.just("gaussian"), st.floats(-20.0, 50.0), st.floats(0.2, 10.0)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_member, _member)
def test_key_side_matches_mpmath_far_out(s1, s2):
    d1, d2 = _MAKE[s1[0]](*s1[1:]), _MAKE[s2[0]](*s2[1:])
    assume(d1.tail_key() != d2.tail_key() and _key_gaps_clear(d1, d2))
    v = compare(d1, d2)
    assume(v.decided_by == "TailAsymptotics")
    with mpmath.workdps(DPS):
        x = mpmath.mpf(10) ** 30
        diff = _MP[s1[0]](*s1[1:])(x) - _MP[s2[0]](*s2[1:])(x)
    assert diff != 0
    want = Relation.FIRST_STRICT if diff < 0 else Relation.SECOND_STRICT
    assert v.relation is want, (s1, s2, v, diff)


# --- the benchmark's tournament pool, rebuilt ------------------------------

_G = (10.0, 2.0)
POOL = {
    "gumbel_ex1a": (Gumbel(31.0063, 1.74346), mp_gumbel(31.0063, 1.74346)),
    "gumbel_ex1b": (Gumbel(32.0063, 1.74346), mp_gumbel(32.0063, 1.74346)),
    "gumbel_ex2a": (Gumbel(6.27294, 2.20532), mp_gumbel(6.27294, 2.20532)),
    "gumbel_ex2b": (Gumbel(6.19073, 2.06288), mp_gumbel(6.19073, 2.06288)),
    "gamma_ex3": (Gamma(260.345, 0.0373929), mp_gamma(260.345, 0.0373929)),
    "weibull_ex3": (Weibull(20.0, 10.0), mp_weibull(20.0, 10.0)),
    "gaussian_10_2": (Gaussian(*_G), mp_gaussian(*_G)),
    "weibull_2_5": (Weibull(2.0, 5.0), mp_weibull(2.0, 5.0)),
    "gamma_3_2": (Gamma(3.0, 2.0), mp_gamma(3.0, 2.0)),
    "uniform_1_20": (
        PiecewisePolyDensity.uniform(1.0, 20.0),
        lambda x: mpmath.log(min(max((20 - mpmath.mpf(x)) / 19, 0), 1)),
    ),
    "gaussian_10_2_on_1_20": (
        truncate(Gaussian(*_G), 1.0, 20.0),
        lambda x: _mp_window(mp_gaussian(*_G), 1.0, 20.0, x),
    ),
    "point_3": (PointMass(3.0), lambda x: mpmath.mpf(0) if x < 3 else -mpmath.inf),
}


def _mp_window(base, lo, hi, x):
    """log survival of ``base`` conditioned on [lo, hi]."""
    x = min(max(mpmath.mpf(x), lo), hi)
    return mpmath.log((mpmath.exp(base(x)) - mpmath.exp(base(hi))) / (mpmath.exp(base(lo)) - mpmath.exp(base(hi))))


_FLOAT = {
    "gumbel_ex1a": ("gumbel", 31.0063, 1.74346), "gumbel_ex1b": ("gumbel", 32.0063, 1.74346),
    "gumbel_ex2a": ("gumbel", 6.27294, 2.20532), "gumbel_ex2b": ("gumbel", 6.19073, 2.06288),
    "gamma_ex3": ("gamma", 260.345, 0.0373929), "weibull_ex3": ("weibull", 20.0, 10.0),
    "gaussian_10_2": ("gaussian", *_G), "weibull_2_5": ("weibull", 2.0, 5.0), "gamma_3_2": ("gamma", 3.0, 2.0),
}
#: where crossings are looked for: the bulk finely, then out to 1e12
_SCAN = np.unique(np.concatenate([np.linspace(1.0, 200.0, 4001), np.geomspace(200.0, 1e12, 1001)]))


@functools.lru_cache(maxsize=None)
def _scan_logsf(name):
    """log survival of an unbounded pool member on ``_SCAN``, in float64
    from scipy.special, with mpmath where ``gammaincc`` underflows."""
    family, a, b = _FLOAT[name]
    x = _SCAN
    with np.errstate(over="ignore", divide="ignore"):
        if family == "gumbel":
            return -np.exp((x - a) / b)
        if family == "weibull":
            return -np.power(x / b, a)
        if family == "gaussian":
            return log_ndtr((a - x) / b)
        out = np.log(gammaincc(a, x / b))
    deep = out < -600
    with mpmath.workdps(20):
        out[deep] = [float(mp_gamma(a, b)(v)) for v in x[deep]]
    return out


def _last_crossing(pref, other):
    """Largest x >= 1 where the preferred log survival stops exceeding the
    other's, by a float64 scan refined with mpmath; None if it never does."""
    with np.errstate(invalid="ignore"):  # -inf - -inf where both vanish
        d = _scan_logsf(pref) - _scan_logsf(other)
    above = np.nonzero(d > 0)[0]
    if len(above) == 0:
        return None
    i = above[-1]
    lp, lo = POOL[pref][1], POOL[other][1]
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda x: lp(x) - lo(x), (_SCAN[i], _SCAN[i + 1]), solver="anderson")
    return float(root)


def _certifies(x0, grid, preferred, logsf1, logsf2):
    """None when the certificate holds against mpmath, else the reason."""
    rows = np.asarray(grid, dtype=float)
    if np.any(rows[:, 0] < x0):
        return "a row lies below x0"
    beyond = rows[-1, 0] * np.geomspace(1.0 + 1e-9, 100.0, 16)
    picked = np.unique(np.linspace(0, len(rows) - 1, 24).astype(int))
    with mpmath.workdps(30):
        for x, s1, s2 in rows[picked].tolist() + [(x, None, None) for x in beyond]:
            l1, l2 = logsf1(x), logsf2(x)
            if s1 is not None:
                # exp of a hugely negative mpf would take mpmath ages
                truth = tuple(float(mpmath.exp(l)) if l > -800 else 0.0 for l in (l1, l2))
                if abs(s1 - truth[0]) > 1e-9 + 1e-6 * truth[0] or abs(s2 - truth[1]) > 1e-9 + 1e-6 * truth[1]:
                    return f"printed survival at x={x} is {(s1, s2)}, mpmath {truth}"
            lp, lo = (l1, l2) if preferred == 0 else (l2, l1)
            # the program's relative slack, plus the rounding of x itself,
            # which moves a log survival by about 1e-16 x |d log sf / dx|
            if lp > lo + 2e-6 + 1e-12 * abs(lo):
                return f"dominance fails at x={x}"
    return None


_PAIRS = [(a, b) for a in POOL for b in POOL if a != b]


@pytest.mark.parametrize("a,b", _PAIRS, ids=[f"{a}-{b}" for a, b in _PAIRS])
def test_pool_pair_certifies_at_the_last_crossing(a, b):
    (d1, logsf1), (d2, logsf2) = POOL[a], POOL[b]
    v = compare(d1, d2)
    if v.preferred_index is None:
        return
    t = tail_threshold(d1, d2, v)
    assert _certifies(t.x0, t.grid, v.preferred_index, logsf1, logsf2) is None
    pref, other = (a, b) if v.preferred_index == 0 else (b, a)
    if v.decided_by == "TailAsymptotics":
        root = _last_crossing(pref, other)
        if root is None:
            assert t.x0 == 1.0  # dominance from the grid's start
        else:
            assert t.x0 == pytest.approx(root, rel=1e-6)
    elif v.decided_by in ("SupportBound", "PointMassRule"):
        # the preferred side's losses end at its upper bound
        assert t.x0 <= POOL[pref][0].support.upper
