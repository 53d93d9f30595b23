"""End-to-end acceptance checks for the reference benchmark workflows.

Each numbered test prints one pass line; the randomized property suite at
the end (criterion 8) runs at least 500 cases per property and must finish
inside a total budget of 60 seconds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import gammaln

from lossorder import fixtures, kde, ordering
from lossorder.distributions import (
    CategoricalDistribution,
    Gamma,
    Gumbel,
    HistogramDistribution,
    LatticeDistribution,
    Weibull,
)
from lossorder.errors import Undecided
from lossorder.kde import KernelDensityEstimate
from lossorder.ordering import (
    Relation,
    compare,
    compare_moment_sequences,
    moment_sequence,
    tail_threshold,
)
from lossorder.simulate import Graph, OutbreakConfig, simulate_outbreaks

PROP_DURATIONS = []


def moments(d, n):
    return [float(np.exp(d.log_moment(k))) for k in range(1, n + 1)]


def assert_close_seq(got, want, rel):
    for g, w in zip(got, want):
        assert abs(g - w) <= rel * abs(w), f"{g} vs {w}"


def grid_dominates(grid, preferred_index):
    for row in grid:
        _, s1, s2 = row
        sp, so = (s1, s2) if preferred_index == 0 else (s2, s1)
        if sp - so > max(1e-12, 1e-6 * max(sp, so)):
            return False
    return True


def test_acceptance_1_location_shifted_pair():
    t0 = time.monotonic()
    d1 = Gumbel(31.0063, 1.74346)
    d2 = Gumbel(32.0063, 1.74346)
    assert_close_seq(moments(d1, 5), (30, 905, 27437.3, 835606, 2.55545e7), 1e-3)
    assert_close_seq(moments(d2, 5), (31, 966, 30243.3, 950906, 3.00162e7), 1e-3)
    verdict = compare(d1, d2)
    assert verdict.relation is Relation.FIRST_STRICT
    threshold = tail_threshold(d1, d2, verdict)
    assert threshold.x0 <= 25.0
    assert grid_dominates(threshold.grid, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"acceptance 1: PASS (location-shifted pair, {elapsed:.2f}s)")


def test_acceptance_2_equal_mean_different_variance():
    d1 = Gumbel(6.27294, 2.20532)
    d2 = Gumbel(6.19073, 2.06288)
    assert_close_seq(moments(d1, 5), (5, 33, 219.215, 1654.9, 11957.8), 1e-3)
    assert_close_seq(moments(d2, 5), (5, 32, 208.895, 1517.51, 10806.8), 1e-3)
    verdict = compare(d1, d2)
    assert verdict.relation is Relation.SECOND_STRICT
    threshold = tail_threshold(d1, d2, verdict)
    assert 4.5 <= threshold.x0 <= 6.5
    assert grid_dominates(threshold.grid, 1)
    print(f"acceptance 2: PASS (equal-mean pair, x0 = {threshold.x0:.3f})")


def test_acceptance_3_cross_family_stabilization():
    g = Gamma(260.345, 0.0373929)
    w = Weibull(20.0, 10.0)
    assert_close_seq(moments(g, 5), (9.73504, 95.1351, 933.259, 9190.01, 90839.7), 1e-3)
    assert_close_seq(moments(w, 5), (9.73504, 95.1351, 933.041, 9181.69, 90640.2), 1e-3)
    verdict = compare(g, w)
    assert verdict.relation is Relation.SECOND_STRICT
    direct = compare_moment_sequences(moment_sequence(g, 16), moment_sequence(w, 16))
    assert direct.relation is Relation.SECOND_STRICT
    assert direct.stabilization_index == 3
    threshold = tail_threshold(g, w, verdict)
    assert 9.5 <= threshold.x0 <= 11.5
    print(f"acceptance 3: PASS (cross-family pair, stabilizes at order 3, x0 = {threshold.x0:.2f})")


def test_acceptance_4_rating_pipeline():
    groups = fixtures.load_cvss_ratings()
    s1, s2 = groups["scenario1"], groups["scenario2"]
    assert s1.probs == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
    assert s2.probs == pytest.approx((7 / 9, 2 / 9, 0.0), abs=1e-15)
    verdict = compare(s1, s2)
    assert verdict.relation is Relation.FIRST_STRICT
    threshold = tail_threshold(s1, s2, verdict)
    assert threshold.x0 == "M"
    print("acceptance 4: PASS (rating pipeline, threshold category M)")


def test_acceptance_5_outbreak_pipeline():
    hists = fixtures.load_outbreak_histograms()
    c1, c2 = hists["config1"], hists["config2"]
    verdict = compare(c1, c2)
    assert verdict.relation is Relation.SECOND_STRICT
    threshold = tail_threshold(c1, c2, verdict)
    assert threshold.x0 == 9.0
    print("acceptance 5: PASS (outbreak histograms, x0 = 9)")


def test_acceptance_6_flow_series_kde():
    first, second = fixtures.load_nile(split=50)
    k1, k2 = kde.fit(first), kde.fit(second)
    assert abs(k1.bandwidth - 79.32) <= 0.01 * 79.32
    assert abs(k2.bandwidth - 45.28) <= 0.01 * 45.28
    assert abs(k1.effective_upper_bound() - 1449.32) <= 0.5
    assert abs(k2.effective_upper_bound() - 1215.28) <= 0.5
    verdict = compare(k1, k2)
    assert verdict.relation is Relation.SECOND_STRICT
    threshold = tail_threshold(k1, k2, verdict)
    assert 150.0 <= threshold.x0 <= 300.0
    print(f"acceptance 6: PASS (flow-series KDE, x0 = {threshold.x0:.1f})")


def test_acceptance_7_score_kde_reversal():
    scores = fixtures.load_cvss_scores()
    k1 = kde.fit(scores["scenario1"])
    k2 = kde.fit(scores["scenario2"])
    assert abs(k1.bandwidth - 0.798) <= 0.01 * 0.798
    assert abs(k2.bandwidth - 0.346) <= 0.01 * 0.346
    verdict = compare(k1, k2)
    assert verdict.relation is Relation.SECOND_STRICT
    print("acceptance 7: PASS (raw-score KDE, preference reverses vs. coarsened ratings)")


# ---------------------------------------------------------------------------
# criterion 8: randomized property suite
# ---------------------------------------------------------------------------

# the timer fixture wraps the whole property run once, which is exactly the
# intended scope, so the function-scoped-fixture health check can be silenced
PROP_SETTINGS = settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def prop_timer():
    t0 = time.monotonic()
    yield
    PROP_DURATIONS.append(time.monotonic() - t0)


@st.composite
def weight_vector(draw, n):
    return draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 0
        )
    )


@st.composite
def ranked_pair(draw):
    n = draw(st.integers(2, 5))
    ranks = tuple(
        sorted(
            draw(st.lists(st.integers(1, 12), min_size=n, max_size=n, unique=True)),
            reverse=True,
        )
    )
    return ranks, draw(weight_vector(n)), draw(weight_vector(n))


def categorical(ranks, weights):
    total = sum(weights)
    return CategoricalDistribution(
        labels=tuple(str(r) for r in ranks),
        ranks=tuple(float(r) for r in ranks),
        probs=tuple(w / total for w in weights),
    )


def exact_moment(ranks, weights, k):
    total = sum(weights)
    return sum(Fraction(w, total) * Fraction(r) ** k for r, w in zip(ranks, weights))


class TestPropertySuite:
    @PROP_SETTINGS
    @given(ranked_pair())
    def test_lex_agrees_with_high_order_moment_oracle(self, prop_timer, pair):
        ranks, w1, w2 = pair
        verdict = compare(categorical(ranks, w1), categorical(ranks, w2))
        t1 = sum(w1)
        t2 = sum(w2)
        if [Fraction(w, t1) for w in w1] == [Fraction(w, t2) for w in w2]:
            assert verdict.relation is Relation.EQUIVALENT
            return
        m1 = exact_moment(ranks, w1, 200)
        m2 = exact_moment(ranks, w2, 200)
        expected = Relation.FIRST_STRICT if m1 < m2 else Relation.SECOND_STRICT
        assert verdict.relation is expected

    @PROP_SETTINGS
    @given(ranked_pair(), st.data())
    def test_totality_and_transitivity(self, prop_timer, pair, data):
        ranks, w1, w2 = pair
        w3 = data.draw(weight_vector(len(ranks)))
        a, b, c = (categorical(ranks, w) for w in (w1, w2, w3))
        vab, vbc, vac = compare(a, b), compare(b, c), compare(a, c)
        decided = {Relation.FIRST_STRICT, Relation.SECOND_STRICT, Relation.EQUIVALENT}
        assert {vab.relation, vbc.relation, vac.relation} <= decided
        if vab.relation is Relation.EQUIVALENT and vbc.relation is Relation.EQUIVALENT:
            assert vac.relation is Relation.EQUIVALENT
        elif Relation.SECOND_STRICT not in (vab.relation, vbc.relation):
            if Relation.FIRST_STRICT in (vab.relation, vbc.relation):
                assert vac.relation is Relation.FIRST_STRICT
        elif Relation.FIRST_STRICT not in (vab.relation, vbc.relation):
            if Relation.SECOND_STRICT in (vab.relation, vbc.relation):
                assert vac.relation is Relation.SECOND_STRICT

    @PROP_SETTINGS
    @given(ranked_pair(), st.data())
    def test_mass_shift_toward_severe_is_dispreferred(self, prop_timer, pair, data):
        ranks, w, _ = pair
        positive = [j for j, wj in enumerate(w) if wj > 0 and j > 0]
        if not positive:
            return
        j = data.draw(st.sampled_from(positive))
        i = data.draw(st.integers(0, j - 1))
        shifted = list(w)
        shifted[j] -= 1
        shifted[i] += 1
        verdict = compare(categorical(ranks, w), categorical(ranks, shifted))
        assert verdict.relation is Relation.FIRST_STRICT

    @PROP_SETTINGS
    @given(ranked_pair())
    def test_verdict_stable_under_longer_moment_prefix(self, prop_timer, pair):
        ranks, w1, w2 = pair
        d1, d2 = categorical(ranks, w1), categorical(ranks, w2)
        try:
            v64 = compare_moment_sequences(moment_sequence(d1, 64), moment_sequence(d2, 64))
        except Undecided:
            return
        v128 = compare_moment_sequences(moment_sequence(d1, 128), moment_sequence(d2, 128))
        assert v128.relation is v64.relation

    @PROP_SETTINGS
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=3, max_size=8),
        st.floats(0.3, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_kde_slope_matches_logpdf_differences(self, prop_timer, samples, h, offset):
        k = KernelDensityEstimate(tuple(samples), h)
        x = samples[0] + offset * h
        m, neg_log_c, slope = k.expansion(x)
        assert m == 0 and neg_log_c == -k.logpdf(x)
        s = 1e-4 * h
        fd = (k.logpdf(x + s) - k.logpdf(x - s)) / (2 * s)
        # the central difference errs by s^2 / 6 times the third derivative
        # of log f, the third cumulant of the kernel-weighted -u / h: at most
        # the cube of its span; rounding errs by a few eps of log f over s
        span = (max(samples) - min(samples)) / h + 1.0
        truncation = s**2 / 6 * (span / h) ** 3
        roundoff = 64 * np.finfo(float).eps * (1.0 + abs(neg_log_c)) / s
        assert abs(fd - slope) <= 1e-9 * abs(slope) + truncation + roundoff

    @PROP_SETTINGS
    @given(ranked_pair())
    def test_strict_verdicts_carry_a_dominance_witness(self, prop_timer, pair):
        ranks, w1, w2 = pair
        values = tuple(float(r) for r in reversed(ranks))
        h1 = HistogramDistribution(values, tuple(reversed(w1)))
        h2 = HistogramDistribution(values, tuple(reversed(w2)))
        verdict = compare(h1, h2)
        if verdict.preferred_index is None:
            return
        threshold = tail_threshold(h1, h2, verdict)
        assert threshold.grid
        assert grid_dominates(threshold.grid, verdict.preferred_index)

    def test_alternating_lattice_pair_is_incomparable(self, prop_timer):
        even, odd = fixtures.poisson_like_pair()
        assert compare(even, odd).relation is Relation.INCOMPARABLE
        for lam in (0.5, 2.0):
            # the same parity split of Poisson(lam) weights on j >= 1
            def log_even(v, lam=lam):
                if v < 2 or v % 2:
                    return -np.inf
                j = v // 2
                return j * np.log(lam) - gammaln(j + 1) - lam - np.log1p(-np.exp(-lam))

            def log_odd(v, lam=lam):
                if v < 1 or v % 2 == 0:
                    return -np.inf
                j = (v - 1) // 2
                return j * np.log(lam) - gammaln(j + 1) - lam

            pair = LatticeDistribution(log_even, lower=2), LatticeDistribution(log_odd, lower=1)
            assert compare(*pair).relation is Relation.INCOMPARABLE

    @PROP_SETTINGS
    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
    )
    def test_simulator_determinism_and_degenerate_probabilities(
        self, prop_timer, n, seed, p
    ):
        g = Graph.complete(n)
        cfg = OutbreakConfig(g, transmission=p, n_runs=8, seed=seed)
        h = simulate_outbreaks(cfg)
        assert h == simulate_outbreaks(cfg)
        assert h.total == 8
        if p == 0.0:
            assert h.sizes == (1,)
        if p == 1.0:
            assert h.sizes == (n,)

    def test_acceptance_8_property_budget(self):
        total = sum(PROP_DURATIONS)
        assert total < 60.0
        print(f"acceptance 8: PASS (property suite, {total:.1f}s total)")
