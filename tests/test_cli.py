import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossorder
from lossorder import cli, ordering
from lossorder.distributions import Gumbel, ParametricDistribution
from lossorder.errors import ThresholdNotFound
from lossorder.fixtures import _read


@pytest.fixture
def table2_csv(tmp_path):
    path = tmp_path / "table2.csv"
    path.write_text(_read("table2.csv"))
    return str(path)


@pytest.fixture
def nile_csv(tmp_path):
    path = tmp_path / "nile.csv"
    path.write_text(_read("nile.csv"))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompare:
    def test_strict_preference_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "gumbel:31.0063,1.74346",
            "gumbel:32.0063,1.74346",
            "--moments",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["relation"] == "FirstStrictlyPreferred"
        first = report["moments"]["first"]
        second = report["moments"]["second"]
        for got, want in zip(first, (30, 905, 27437.3, 835606, 2.55545e7)):
            assert abs(got - want) <= 1e-3 * want
        for got, want in zip(second, (31, 966, 30243.3, 950906, 3.00162e7)):
            assert abs(got - want) <= 1e-3 * want

    def test_moments_take_one_call_per_side(self, capsys, monkeypatch):
        calls = []
        log_moments = ParametricDistribution.log_moments

        def counted(self, ks):
            calls.append(list(ks))
            return log_moments(self, ks)

        monkeypatch.setattr(ParametricDistribution, "log_moments", counted)
        code, out, _ = run(capsys, "compare", "gamma:3,2", "weibull:1.5,20", "--moments", "4")
        assert calls == [[1, 2, 3, 4]] * 2
        assert len(json.loads(out)["moments"]["second"]) == 4

    def test_self_comparison_exit_two(self, capsys):
        code, out, _ = run(capsys, "compare", "gamma:2,1", "gamma:2,1")
        assert code == 2
        assert json.loads(out)["verdict"]["relation"] == "Equivalent"

    def test_histogram_columns_with_threshold(self, capsys, table2_csv):
        code, out, _ = run(
            capsys,
            "compare",
            f"{table2_csv}:config2",
            f"{table2_csv}:config1",
            "--threshold",
        )
        assert code == 0
        report = json.loads(out)
        assert report["x0"]["x0"] == 9.0

    def test_plot_data_grids(self, capsys):
        code, out, _ = run(
            capsys, "compare", "gamma:2,1", "gamma:3,1", "--plot-data"
        )
        assert code == 0
        plot = json.loads(out)["plot_data"]
        assert len(plot["x"]) == len(plot["S1"]) == len(plot["S2"])

    def test_malformed_spec_exits_ten(self, capsys):
        code, _, err = run(capsys, "compare", "bogus:1,2", "gamma:2,1")
        assert code == 10
        assert "bogus" in err

    def test_missing_file_exits_ten(self, capsys):
        code, _, err = run(capsys, "compare", "no_such_file.csv", "gamma:2,1")
        assert code == 10

    def test_malformed_json_exits_ten(self, capsys, tmp_path):
        # 1 would read as "second preferred"
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "histogram", "pmf": [0.5, 0.5]}')
        code, out, err = run(capsys, "compare", str(path), "gumbel:1,2")
        assert code == 10 and out == ""
        assert "total" in err

    def test_bad_arguments_exit_ten(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare"])  # missing positional arguments
        assert exc.value.code == 10

    def test_report_kept_when_certificate_fails(self, capsys, nile_csv, monkeypatch):
        def no_certificate(*args):
            raise ThresholdNotFound("survival dominance never holds up to the support maximum")

        monkeypatch.setattr(cli.ordering, "tail_threshold", no_certificate)
        # the KDE's bandwidth (about 60.6) is below 150: its tail is the lighter
        code, out, err = run(capsys, "compare", nile_csv, "gaussian:900,150", "--threshold")
        assert code == 10
        report = json.loads(out)
        assert report["verdict"]["relation"] == "FirstStrictlyPreferred"
        assert report["x0"] is None
        assert report["x0_error"] == "survival dominance never holds up to the support maximum"
        assert "survival dominance never holds" in err


class TestKde:
    def test_split_series(self, capsys, nile_csv):
        code, out, _ = run(capsys, "kde", nile_csv, "--split", "50", "--threshold")
        assert code == 1  # second half preferred
        report = json.loads(out)
        h1, h2 = report["bandwidths"]
        assert abs(h1 - 79.32) <= 0.01 * 79.32
        assert abs(h2 - 45.28) <= 0.01 * 45.28
        b1, b2 = report["effective_upper_bounds"]
        assert abs(b1 - 1449.32) <= 0.5
        assert abs(b2 - 1215.28) <= 0.5
        assert 150 <= report["x0"]["x0"] <= 300

    def test_report_kept_when_certificate_fails(self, capsys, nile_csv, monkeypatch):
        def no_certificate(*args):
            raise ThresholdNotFound("verification grid rejects the candidate threshold")

        monkeypatch.setattr(cli.ordering, "tail_threshold", no_certificate)
        code, out, err = run(capsys, "kde", nile_csv, "--split", "50", "--threshold")
        assert code == 10
        report = json.loads(out)
        assert report["verdict"]["relation"] == "SecondStrictlyPreferred"
        assert report["x0"] is None
        assert report["x0_error"] == "verification grid rejects the candidate threshold"
        assert "verification grid rejects" in err

    def test_group_by_ratings(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(_read("table1.csv"))
        code, out, _ = run(capsys, "kde", str(path), "--group-by", "scenario")
        assert code == 1  # scenario 2 preferred
        report = json.loads(out)
        assert report["inputs"][0]["name"] == "scenario1"

    def test_group_by_missing_column_exits_ten(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(_read("table1.csv"))
        code, _, err = run(capsys, "kde", str(path), "--group-by", "nosuch")
        assert code == 10
        assert "missing column" in err

    def test_group_by_accepts_upper_case_header(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(_read("table1.csv").replace("scenario,cvss", "Scenario,CVSS", 1))
        code, out, _ = run(capsys, "kde", str(path), "--group-by", "Scenario")
        assert code == 1  # scenario 2 preferred, as with the lower-case header
        assert json.loads(out)["inputs"][0]["name"] == "scenario1"

    def test_too_few_points(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x\n1\n2\n3\n")
        code, _, err = run(capsys, "kde", str(path), "--split", "1")
        assert code == 10


class TestSimulate:
    def test_degenerate_zero_probability(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--p", "0", "--runs", "100", "--graph", "complete:5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size,count"
        assert lines[1] == "1,100"
        assert all(line.endswith(",0") for line in lines[2:])

    def test_deterministic_output(self, capsys):
        args = ("simulate", "--p", "0.3", "--runs", "50", "--graph", "complete:6", "--seed", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--p", "1", "--runs", "10", "--graph", "complete:4",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["counts"][3] == 10

    def test_invalid_probability(self, capsys):
        code, _, err = run(capsys, "simulate", "--p", "1.5", "--runs", "10")
        assert code == 10

    def test_output_round_trips_into_compare(self, capsys, tmp_path):
        _, out, _ = run(
            capsys,
            "simulate", "--p", "0.15", "--runs", "200", "--graph", "complete:10",
        )
        a = tmp_path / "a.csv"
        a.write_text(out)
        _, out2, _ = run(
            capsys,
            "simulate", "--p", "0.35", "--runs", "200", "--graph", "complete:10",
        )
        b = tmp_path / "b.csv"
        b.write_text(out2)
        code, _, _ = run(capsys, "compare", f"{a}:count", f"{b}:count")
        assert code == 0  # lower transmission preferred


class TestReproduce:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--only", "table1")
        assert code == 0
        assert "table1" in out and "pass" in out

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "reproduce", "--only", "nonsense")
        assert code == 10


def test_cli_import_leaves_scipy_stats_out():
    # importing scipy.stats costs about a second of every CLI call
    src = str(Path(lossorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, lossorder.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_certificate_rows_print_as_tuple_rows(capsys):
    # the JSON text of the rows is what a tuple of Python-float rows gives
    code, out, _ = run(
        capsys, "compare", "gumbel:6.27294,2.20532", "gumbel:6.19073,2.06288", "--threshold"
    )
    assert code == 1
    d1, d2 = Gumbel(6.27294, 2.20532), Gumbel(6.19073, 2.06288)
    t = ordering.tail_threshold(d1, d2, ordering.compare(d1, d2))
    xs, s1, s2 = np.asarray(t.grid).T
    report = json.loads(out)
    report["x0"]["grid"] = [list(row) for row in zip(xs.tolist(), s1.tolist(), s2.tolist())]
    assert out == json.dumps(report, indent=2) + "\n"
