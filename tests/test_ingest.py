import numpy as np
import pytest

from lossorder import fixtures
from lossorder.distributions import (
    CategoricalDistribution,
    Gamma,
    HistogramDistribution,
    PointMass,
    truncate,
)
from lossorder.errors import (
    EmptyData,
    JsonFormError,
    LossOrderError,
    RangeError,
    RowError,
    ScaleViolation,
)
from lossorder.ingest import (
    ScaleSpec,
    from_json,
    parse_counts,
    parse_ratings,
    parse_series,
    to_json,
)
from lossorder.kde import fit


class TestScaleSpec:
    def test_cvss_categorization(self):
        scale = ScaleSpec.cvss()
        assert scale.categorize(0.0) == "L"
        assert scale.categorize(2.99) == "L"
        assert scale.categorize(3.0) == "M"
        assert scale.categorize(7.9) == "M"
        assert scale.categorize(8.0) == "H"
        assert scale.categorize(10.0) == "H"

    def test_out_of_scale_rejected(self):
        with pytest.raises(ScaleViolation):
            ScaleSpec.cvss().categorize(10.5)
        with pytest.raises(ScaleViolation):
            ScaleSpec.cvss().categorize(-0.1)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            ScaleSpec(("B", "A"), (2.0, 1.0), ((1.0, 5.0), (0.0, 2.0)))


class TestParseRatings:
    def test_fixture_pipeline(self):
        groups = fixtures.load_cvss_ratings()
        s1, s2 = groups["scenario1"], groups["scenario2"]
        assert s1.labels == ("H", "M", "L")
        assert s1.probs == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
        assert s2.probs == pytest.approx((7 / 9, 2 / 9, 0.0), abs=1e-15)

    def test_row_order_invariance(self):
        text = "expert,scenario,cvss\ne1,a,9\ne2,a,5\ne3,a,1\n"
        shuffled = "expert,scenario,cvss\ne3,a,1\ne1,a,9\ne2,a,5\n"
        scale = ScaleSpec.cvss()
        assert parse_ratings(text, scale) == parse_ratings(shuffled, scale)

    def test_bad_score_reports_line(self):
        text = "expert,scenario,cvss\ne1,a,9\ne2,a,oops\n"
        with pytest.raises(RowError) as exc:
            parse_ratings(text, ScaleSpec.cvss())
        assert exc.value.line == 3

    def test_score_outside_scale(self):
        text = "expert,scenario,cvss\ne1,a,11\n"
        with pytest.raises(ScaleViolation):
            parse_ratings(text, ScaleSpec.cvss())

    def test_empty_file(self):
        with pytest.raises(EmptyData):
            parse_ratings("expert,scenario,cvss\n", ScaleSpec.cvss())

    def test_missing_column(self):
        with pytest.raises(RowError):
            parse_ratings("a,b\n1,2\n", ScaleSpec.cvss())


class TestParseCounts:
    def test_fixture_totals(self):
        hists = fixtures.load_outbreak_histograms()
        assert hists["config1"].total == 1000
        assert hists["config2"].total == 1000
        # largest outbreak size shares
        assert dict(zip(hists["config1"].bin_values, hists["config1"].probs))[20.0] == pytest.approx(0.037)
        assert dict(zip(hists["config2"].bin_values, hists["config2"].probs))[20.0] == pytest.approx(0.010)

    def test_negative_count_rejected(self):
        with pytest.raises(RowError):
            parse_counts("size,c\n1,-2\n")

    def test_all_zero_column_rejected(self):
        with pytest.raises(EmptyData):
            parse_counts("size,c\n1,0\n2,0\n")

    def test_zero_column_skipped_when_other_valid(self):
        out = parse_counts("size,a,b\n1,3,0\n2,1,0\n")
        assert set(out) == {"a"}

    def test_single_row(self):
        out = parse_counts("size,c\n4,7\n")
        assert out["c"].bin_values == (4.0,)
        assert out["c"].total == 7


class TestParseSeries:
    def test_fixture_split(self):
        first, second = fixtures.load_nile(split=50)
        assert len(first) == len(second) == 50
        assert max(first) == 1370
        assert max(second) == 1170

    def test_unsplit(self):
        values = parse_series("x\n1\n2\n3\n")
        assert values == [1.0, 2.0, 3.0]

    def test_split_out_of_range(self):
        with pytest.raises(RangeError):
            parse_series("x\n1\n2\n", split=5)

    def test_non_numeric_row(self):
        with pytest.raises(RowError) as exc:
            parse_series("x\n1\nbogus\n")
        assert exc.value.line == 3

    def test_empty(self):
        with pytest.raises(EmptyData):
            parse_series("x\n")


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "d",
        [
            CategoricalDistribution(("H", "M", "L"), (3.0, 2.0, 1.0), (0.5, 0.3, 0.2)),
            HistogramDistribution((1.0, 2.0, 5.0), (10, 30, 60)),
            PointMass(4.0),
            Gamma(3.5, 2.0),
            fit([2.0, 3.0, 5.0, 6.0]),
        ],
        ids=["categorical", "histogram", "point-mass", "parametric", "kde"],
    )
    def test_round_trip(self, d):
        assert from_json(to_json(d)) == d

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            from_json('{"kind": "mystery"}')
        with pytest.raises(JsonFormError, match="mystery"):
            from_json('{"kind": "mystery"}')

    @pytest.mark.parametrize(
        "doc",
        [
            '{"kind": "histogram", "pmf": [0.5, 0.5]}',
            '{"kind": "histogram", "support": [1.0, 2.0], "pmf": [0.5, 0.5], "total": "ten"}',
            '{"kind": "categorical", "support": [3.0, 1.0], "pmf": [0.5, 0.5]}',
            '{"kind": "point_mass", "parameters": {"value": "four"}}',
            '{"kind": "samples", "samples": 4.0}',
            '{"support": [1.0, 2.0]}',
            '[1, 2]',
            "not json",
        ],
    )
    def test_malformed_document_raises_json_form_error(self, doc):
        with pytest.raises(JsonFormError):
            from_json(doc)

    def test_kind_without_json_form_raises_json_form_error(self):
        with pytest.raises(JsonFormError, match="TruncatedDistribution"):
            to_json(truncate(Gamma(3.0, 2.0), 1.0, 10.0))
        assert issubclass(JsonFormError, LossOrderError)

    def test_json_text_is_unchanged(self):
        assert to_json(HistogramDistribution((1.0, 2.0, 5.0), (10, 30, 60))) == (
            '{"kind": "histogram", "support": [1.0, 2.0, 5.0], '
            '"pmf": [0.1, 0.3, 0.6], "total": 100}'
        )
        assert to_json(Gamma(3.5, 2.0)) == (
            '{"kind": "parametric", "support": [0.0, Infinity], '
            '"parameters": {"family": "gamma", "a": 3.5, "b": 2.0}}'
        )

    def test_bytes_input_accepted(self):
        d = PointMass(2.0)
        assert from_json(to_json(d).encode()) == d
