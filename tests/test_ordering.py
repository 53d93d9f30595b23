import numpy as np
import pytest

from lossorder import fixtures
from lossorder.distributions import (
    CategoricalDistribution,
    Gamma,
    Gaussian,
    Gumbel,
    HistogramDistribution,
    PiecewisePolyDensity,
    PointMass,
    Weibull,
)
from lossorder.errors import (
    AdmissibilityError,
    MeaninglessComparison,
    NoDensity,
    SupportMismatch,
    ThresholdNotFound,
    Undecided,
)
from lossorder.kde import fit
from lossorder.ordering import (
    MomentSequence,
    Relation,
    compare,
    compare_categorical,
    compare_moment_sequences,
    compare_point_mass,
    moment_sequence,
    tail_threshold,
)


def seq(values):
    return MomentSequence(tuple(np.log(values)))


class TestMomentSequenceComparison:
    def test_clean_dominance(self):
        m1 = seq([2.0**k for k in range(1, 11)])
        m2 = seq([2.1**k for k in range(1, 11)])
        v = compare_moment_sequences(m1, m2)
        assert v.relation is Relation.FIRST_STRICT
        assert v.stabilization_index == 1

    def test_late_crossover_sets_stabilization(self):
        # first three orders favour one side, the rest the other
        vals1 = [1.0, 1.0, 1.0] + [3.0**k for k in range(4, 12)]
        vals2 = [2.0, 2.0, 2.0] + [2.0**k for k in range(4, 12)]
        v = compare_moment_sequences(seq(vals1), seq(vals2))
        assert v.relation is Relation.SECOND_STRICT
        assert v.stabilization_index == 4

    def test_equivalence(self):
        m = seq([1.5**k for k in range(1, 9)])
        assert compare_moment_sequences(m, m).relation is Relation.EQUIVALENT

    def test_short_final_run_is_undecided(self):
        vals1 = [1.0] * 10
        vals2 = [1.0] * 8 + [2.0, 2.0]  # run of 2 < window of 8
        with pytest.raises(Undecided) as exc:
            compare_moment_sequences(seq(vals1), seq(vals2))
        assert len(exc.value.trace) == 10

    def test_tie_at_end_is_undecided(self):
        vals = [2.0**k for k in range(1, 11)]
        with pytest.raises(Undecided):
            compare_moment_sequences(seq(vals), seq(list(vals[:-1]) + [vals[-1] * (1 + 1e-7)]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compare_moment_sequences(seq([1.0, 2.0]), seq([1.0]))


class TestCategoricalLex:
    def cat(self, probs):
        return CategoricalDistribution(("H", "M", "L"), (3.0, 2.0, 1.0), probs)

    def test_first_entry_decides(self):
        v = compare_categorical(self.cat((0.5, 0.5, 0.0)), self.cat((7 / 9, 2 / 9, 0.0)))
        assert v.relation is Relation.FIRST_STRICT
        assert v.decided_by == "CategoricalLex"
        assert v.stabilization_index == 1

    def test_later_entry_decides(self):
        v = compare_categorical(self.cat((0.5, 0.4, 0.1)), self.cat((0.5, 0.3, 0.2)))
        assert v.relation is Relation.SECOND_STRICT
        assert v.stabilization_index == 2

    def test_equivalent(self):
        v = compare_categorical(self.cat((0.2, 0.3, 0.5)), self.cat((0.2, 0.3, 0.5)))
        assert v.relation is Relation.EQUIVALENT

    def test_mismatched_scales_rejected(self):
        other = CategoricalDistribution(("X", "Y"), (2.0, 1.0), (0.5, 0.5))
        with pytest.raises(SupportMismatch):
            compare_categorical(self.cat((0.5, 0.5, 0.0)), other)

    def test_histograms_align_on_value_union(self):
        h1 = HistogramDistribution((1.0, 3.0), (1, 1))
        h2 = HistogramDistribution((1.0, 2.0, 3.0), (1, 1, 2))
        # top value 3 ties (0.5 vs 0.5); value 2 decides (0 vs 0.25)
        v = compare_categorical(h1, h2)
        assert v.relation is Relation.FIRST_STRICT
        assert v.stabilization_index == 2


class TestPointMassRules:
    def test_certain_below_upper_bound_preferred(self):
        v = compare_point_mass(PointMass(2.0), PiecewisePolyDensity.uniform(1.0, 5.0))
        assert v.relation is Relation.FIRST_STRICT

    def test_certain_at_upper_bound_dispreferred(self):
        v = compare_point_mass(PointMass(5.0), PiecewisePolyDensity.uniform(1.0, 5.0))
        assert v.relation is Relation.SECOND_STRICT

    def test_two_point_masses(self):
        assert compare(PointMass(2.0), PointMass(3.0)).relation is Relation.FIRST_STRICT
        assert compare(PointMass(3.0), PointMass(3.0)).relation is Relation.EQUIVALENT

    def test_dispatcher_flips_when_point_mass_is_second(self):
        v = compare(PiecewisePolyDensity.uniform(1.0, 5.0), PointMass(2.0))
        assert v.relation is Relation.SECOND_STRICT
        assert v.decided_by == "PointMassRule"

    def test_point_mass_equals_a_one_bin_histogram(self):
        # both are a sure loss of 3, whichever side the point mass is on
        sure = HistogramDistribution((3.0,), (5,))
        for v in (compare(PointMass(3.0), sure), compare(sure, PointMass(3.0))):
            assert (v.relation, v.decided_by) == (Relation.EQUIVALENT, "PointMassRule")
        assert compare(PointMass(2.0), sure).relation is Relation.FIRST_STRICT
        assert compare(sure, PointMass(2.0)).relation is Relation.SECOND_STRICT


class TestSmoothComparison:
    def test_endpoint_density_decides(self):
        flat = PiecewisePolyDensity.uniform(1.0, 3.0)
        rising = PiecewisePolyDensity([1.0, 3.0], [[-0.5, 0.5]])
        v = compare(flat, rising)
        assert v.relation is Relation.FIRST_STRICT
        assert v.decided_by == "DerivativeLex"
        assert v.stabilization_index == 0

    def test_equal_densities_fall_back_to_moments(self):
        u = PiecewisePolyDensity.uniform(1.0, 3.0)
        v = compare(u, PiecewisePolyDensity.uniform(1.0, 3.0))
        assert v.relation is Relation.EQUIVALENT


class TestDispatcher:
    def test_support_bound_rule(self):
        narrow = PiecewisePolyDensity.uniform(1.0, 3.0)
        wide = PiecewisePolyDensity.uniform(1.0, 5.0)
        v = compare(narrow, wide)
        assert v.relation is Relation.FIRST_STRICT
        assert v.decided_by == "SupportBound"

    def test_ordinal_vs_numeric_rejected(self):
        cat = CategoricalDistribution(("H", "L"), (2.0, 1.0), (0.5, 0.5))
        with pytest.raises(MeaninglessComparison):
            compare(cat, PiecewisePolyDensity.uniform(1.0, 3.0))

    def test_point_mass_bypasses_scale_check(self):
        # the certain loss equals the categorical maximum, so the categorical
        # side (every outcome at most that loss) is preferred
        cat = CategoricalDistribution(("H", "L"), (2.0, 1.0), (0.5, 0.5))
        v = compare(cat, PointMass(2.0))
        assert v.relation is Relation.FIRST_STRICT
        assert v.decided_by == "PointMassRule"

    def test_subunit_compact_support_rejected(self):
        low = PiecewisePolyDensity.uniform(0.2, 3.0)
        with pytest.raises(AdmissibilityError):
            compare(low, PiecewisePolyDensity.uniform(1.0, 3.0))

    def test_unbounded_pair_goes_through_ladder(self):
        v = compare(Gumbel(6.27294, 2.20532), Gumbel(6.19073, 2.06288))
        assert v.relation is Relation.SECOND_STRICT
        assert v.decided_by == "TailAsymptotics"

    def test_scale_ratio_pair_uses_ratio_criterion(self):
        v = compare(Gamma(260.345, 0.0373929), Weibull(20.0, 10.0))
        assert v.relation is Relation.SECOND_STRICT
        assert v.decided_by == "TailAsymptotics"

    def test_identical_unbounded_inputs_equivalent(self):
        g = Gumbel(5.0, 1.0)
        assert compare(g, Gumbel(5.0, 1.0)).relation is Relation.EQUIVALENT

    def test_alternating_lattice_pair_incomparable(self):
        even, odd = fixtures.poisson_like_pair()
        v = compare(even, odd)
        assert v.relation is Relation.INCOMPARABLE

    def test_tied_tail_keys_are_equivalent(self):
        # the same key: Gumbel(0, 1) twice, and one exponential law written
        # as a Gamma and as a Weibull
        for d1, d2 in ((Gumbel(0.0, 1.0), Gumbel(0.0, 1.0)), (Gamma(1.0, 3.0), Weibull(1.0, 3.0))):
            v = compare(d1, d2)
            assert (v.relation, v.decided_by) == (Relation.EQUIVALENT, "TailAsymptotics")
            assert "tail keys agree" in v.caveat

    @pytest.mark.parametrize("density", [Gaussian(10.0, 2.0), Gamma(3.0, 2.0), fit([2.0, 3.0, 7.5])])
    def test_lattice_against_density_names_the_keyless_side(self, density):
        even, _ = fixtures.poisson_like_pair()
        with pytest.raises(NoDensity, match=r"^the first \(LatticeDistribution\) has no tail_key\(\)"):
            compare(even, density)
        with pytest.raises(NoDensity, match=r"^the second \(LatticeDistribution\) has no tail_key\(\)"):
            compare(density, even)


class TestTailThreshold:
    def test_support_bound_threshold_is_narrow_upper(self):
        narrow = PiecewisePolyDensity.uniform(1.0, 3.0)
        wide = PiecewisePolyDensity.uniform(1.0, 5.0)
        v = compare(narrow, wide)
        t = tail_threshold(narrow, wide, v)
        assert t.x0 == pytest.approx(3.0)
        assert all(s1 <= s2 + 1e-9 for _, s1, s2 in t.grid)

    def test_discrete_threshold_is_largest_violation_point(self):
        hists = fixtures.load_outbreak_histograms()
        c1, c2 = hists["config1"], hists["config2"]
        v = compare(c1, c2)
        assert v.relation is Relation.SECOND_STRICT
        t = tail_threshold(c1, c2, v)
        assert t.x0 == 9.0
        # dominance of the preferred side holds strictly above the threshold
        assert all(s2 <= s1 + 1e-9 for x, s1, s2 in t.grid)

    def test_categorical_threshold_label(self):
        groups = fixtures.load_cvss_ratings()
        v = compare(groups["scenario1"], groups["scenario2"])
        t = tail_threshold(groups["scenario1"], groups["scenario2"], v)
        assert t.x0 == "M"

    def test_continuous_crossing_is_bracketed(self):
        d1 = Gumbel(6.27294, 2.20532)
        d2 = Gumbel(6.19073, 2.06288)
        v = compare(d1, d2)
        t = tail_threshold(d1, d2, v)
        assert 4.5 <= t.x0 <= 6.5
        assert all(
            s2 <= s1 + max(1e-12, 1e-6 * max(s1, s2)) for x, s1, s2 in t.grid
        )

    def test_incomparable_has_no_threshold(self):
        even, odd = fixtures.poisson_like_pair()
        v = compare(even, odd)
        with pytest.raises(ValueError):
            tail_threshold(even, odd, v)

    @pytest.mark.parametrize(
        "gumbel, rows",
        [((6.27294, 2.20532), 1), ((6.19073, 2.06288), 1), ((31.0063, 1.74346), 64)],
    )
    def test_support_bound_grid_has_distinct_rows(self, gumbel, rows):
        u = PiecewisePolyDensity.uniform(1.0, 20.0)
        g = Gumbel(*gumbel)
        for d1, d2 in ((u, g), (g, u)):
            t = tail_threshold(d1, d2, compare(d1, d2))
            xs = [x for x, _, _ in t.grid]
            assert t.x0 == 20.0 and xs[0] == 20.0
            assert len(xs) == rows and np.all(np.diff(xs) > 0)
            assert t.grid == tuple((x, float(d1.sf(x)), float(d2.sf(x))) for x in xs)

    @pytest.mark.parametrize(
        "d1, d2",
        [
            (Gumbel(6.27294, 2.20532), Gumbel(6.19073, 2.06288)),
            (Gamma(260.345, 0.0373929), Weibull(20.0, 10.0)),
            (
                fit(1.0 + np.random.default_rng(9).gamma(3.0, 2.0, 300)),
                fit(1.0 + 4.0 * np.random.default_rng(10).weibull(2.0, 300)),
            ),
        ],
    )
    def test_continuous_certificate_rows_are_survival_values(self, d1, d2):
        # the rows come from the x0 search; they must equal sf at their points
        t = tail_threshold(d1, d2, compare(d1, d2))
        xs = np.array([x for x, _, _ in t.grid])
        if d1.from_samples:
            shift = 1.0 - min(min(d1.samples), min(d2.samples))
            d1, d2 = d1.shifted(shift), d2.shifted(shift)
        assert xs[0] == t.x0 and len(xs) > 2
        assert np.array_equal([s for _, s, _ in t.grid], d1.sf(xs))
        assert np.array_equal([s for _, _, s in t.grid], d2.sf(xs))

    def test_wrong_direction_verdict_raises(self):
        # a verdict pointing the wrong way leaves violations up to the top
        # of the evaluation window
        from lossorder.ordering import PreferenceVerdict

        d1 = Gumbel(6.27294, 2.20532)
        d2 = Gumbel(6.19073, 2.06288)
        wrong = PreferenceVerdict(Relation.FIRST_STRICT, decided_by="TruncationLadder")
        with pytest.raises(ThresholdNotFound):
            tail_threshold(d1, d2, wrong)


def test_moment_sequence_matches_direct_moments():
    d = Gamma(3.0, 2.0)
    ms = moment_sequence(d, 8)
    for k in range(1, 9):
        assert ms.log_moments[k - 1] == pytest.approx(d.log_moment(k), rel=1e-12)


def test_verdict_flip_is_involutive():
    v = compare(PointMass(2.0), PointMass(3.0))
    assert v.flipped().flipped() == v
    assert v.preferred_index == 0
    assert v.flipped().preferred_index == 1


def _uniform_1_20():
    return PiecewisePolyDensity.uniform(1.0, 20.0)


def _table2_config1():
    return fixtures.load_outbreak_histograms()["config1"]


def _small_histogram():
    return HistogramDistribution((1.0, 2.0, 5.0), (10, 30, 60))


def _geometric_lattice():
    return fixtures.poisson_like_pair()[0]


# name -> (compact, unbounded, common_scale): an option with a finite upper
# bound b beats one whose support is unbounded above, whose moments outgrow b^k
COMPACT_VS_UNBOUNDED = {
    "uniform-gaussian": (_uniform_1_20, lambda: Gaussian(10.0, 2.0), False),
    "uniform-gumbel": (_uniform_1_20, lambda: Gumbel(6.27294, 2.20532), False),
    "uniform-weibull": (_uniform_1_20, lambda: Weibull(2.0, 5.0), False),
    "uniform-gamma": (_uniform_1_20, lambda: Gamma(3.0, 2.0), False),
    "histogram-gamma": (_table2_config1, lambda: Gamma(3.0, 2.0), True),
    "histogram-lattice": (_small_histogram, _geometric_lattice, False),
}


@pytest.mark.parametrize("compact_first", [True, False], ids=["compact-first", "compact-second"])
@pytest.mark.parametrize("name", COMPACT_VS_UNBOUNDED)
def test_compact_support_beats_unbounded(name, compact_first):
    make_compact, make_unbounded, common_scale = COMPACT_VS_UNBOUNDED[name]
    compact, unbounded = make_compact(), make_unbounded()
    d1, d2 = (compact, unbounded) if compact_first else (unbounded, compact)
    v = compare(d1, d2, common_scale=common_scale)
    assert v.decided_by == "SupportBound"
    assert v.relation is (Relation.FIRST_STRICT if compact_first else Relation.SECOND_STRICT)
    t = tail_threshold(d1, d2, v)
    assert t.x0 == compact.support.upper
    assert all(np.isfinite(x) for x, _, _ in t.grid)
    for _, s1, s2 in t.grid:
        s_compact, s_unbounded = (s1, s2) if compact_first else (s2, s1)
        assert s_compact <= s_unbounded + 1e-12
