"""Command-line interface: compare, kde, simulate, reproduce.

Exit codes of ``compare`` (and ``kde``) encode the verdict so shell
pipelines can branch on it: 0 = first input preferred, 1 = second
preferred, 2 = equivalent, 3 = incomparable.  Any error exits with code 10
and a diagnostic on stderr.  Reports go to stdout as JSON.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures, ingest, kde, ordering, simulate
from .distributions import (
    FAMILIES,
    Gamma,
    Gumbel,
    ParametricDistribution,
    PointMass,
    Weibull,
)
from .errors import LossOrderError, ThresholdNotFound

EXIT_ERROR = 10

_EXIT_BY_RELATION = {
    ordering.Relation.FIRST_STRICT: 0,
    ordering.Relation.SECOND_STRICT: 1,
    ordering.Relation.EQUIVALENT: 2,
    ordering.Relation.INCOMPARABLE: 3,
}

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the error code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def load_source(spec):
    """Resolve a distribution source argument.

    Accepted forms: inline ``family:p1,p2`` (gumbel, gamma, weibull,
    gaussian) or ``pointmass:v``; ``file.json``; ``file.csv:column`` for
    count tables and rating tables (the column selects the count column or
    the scenario group); bare ``file.csv`` for a numeric series, which is
    fitted as a KDE.
    """
    name = spec
    if ":" in spec and not os.path.exists(spec.split(":", 1)[0]):
        family, _, params = spec.partition(":")
        family = family.lower()
        try:
            values = [float(v) for v in params.split(",") if v.strip()]
        except ValueError:
            raise CliError(f"unparseable parameters in {spec!r}")
        if family in ("pointmass", "point_mass"):
            if len(values) != 1:
                raise CliError("pointmass takes exactly one value")
            return name, PointMass(values[0])
        if family not in FAMILIES:
            raise CliError(f"unknown family {family!r}")
        if len(values) != 2:
            raise CliError(f"{family} takes exactly two parameters")
        return name, ParametricDistribution(family, *values)
    path, _, selector = spec.partition(":")
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        return name, ingest.from_json(data)
    text = data.decode("utf-8")
    header = text.splitlines()[0].lower() if text.strip() else ""
    fields = [f.strip() for f in header.split(",")]
    if selector:
        if "cvss" in fields or "score" in fields:
            groups = ingest.parse_ratings(text, ingest.ScaleSpec.cvss())
            if selector not in groups:
                raise CliError(f"no group {selector!r} in {path}")
            return name, groups[selector]
        tables = ingest.parse_counts(text)
        if selector not in tables:
            raise CliError(f"no column {selector!r} in {path}")
        return name, tables[selector]
    samples = ingest.parse_series(text)
    return name, kde.fit(samples)


def _verdict_doc(verdict):
    return {
        "relation": verdict.relation.value,
        "decided_by": verdict.decided_by,
        "stabilization_index": verdict.stabilization_index,
        "caveat": verdict.caveat,
    }


def _threshold_doc(t):
    return {
        "x0": t.x0,
        "grid": [list(row) for row in t.grid],
    }


def _kind(d):
    return type(d).__name__


def _finish(report, d1, d2, verdict, threshold, certificate=_threshold_doc, extra=()):
    """Print the report with its certificate (or x0 null and the reason, the
    error raised once the report is out), and return the exit code."""
    error = None
    if threshold and verdict.relation is not ordering.Relation.INCOMPARABLE:
        try:
            report["x0"] = certificate(ordering.tail_threshold(d1, d2, verdict))
        except ThresholdNotFound as exc:
            report["x0"], report["x0_error"], error = None, str(exc), exc
    report.update(extra)
    print(json.dumps(report, indent=2))
    if error is not None:
        raise error
    return _EXIT_BY_RELATION[verdict.relation]


def cmd_compare(args):
    n1, d1 = load_source(args.first)
    n2, d2 = load_source(args.second)
    verdict = ordering.compare(d1, d2)
    report = {
        "inputs": [
            {"name": n1, "kind": _kind(d1)},
            {"name": n2, "kind": _kind(d2)},
        ],
        "verdict": _verdict_doc(verdict),
    }
    extra = {}
    if args.moments:
        extra["moments"] = {
            "k": list(range(1, args.moments + 1)),
            "first": _moment_values(d1, args.moments),
            "second": _moment_values(d2, args.moments),
        }
    if args.plot_data:
        extra["plot_data"] = _plot_data(d1, d2)
    return _finish(report, d1, d2, verdict, args.threshold, extra=extra)


def _plot_data(d1, d2, n=256):
    lows = [d.support.lower for d in (d1, d2)]
    highs = [d.support.upper for d in (d1, d2)]
    lo = min((l for l in lows if np.isfinite(l)), default=0.0)
    finite_highs = [h for h in highs if np.isfinite(h)]
    if finite_highs:
        hi = max(finite_highs)
    else:
        hi = max(ordering._isf(d1, 1e-6), ordering._isf(d2, 1e-6))
    xs = np.linspace(lo, hi, n)

    def maybe_pdf(d):
        if not d.has_density:
            return [None] * n
        return [float(v) for v in np.atleast_1d(d.pdf(xs))]

    return {
        "x": xs.tolist(),
        "f1": maybe_pdf(d1),
        "f2": maybe_pdf(d2),
        "S1": [float(d1.sf(x)) for x in xs],
        "S2": [float(d2.sf(x)) for x in xs],
    }


def _split_samples(args):
    with open(args.series, "rb") as fh:
        data = fh.read()
    if args.group_by:
        groups = ingest.parse_scores(data, args.group_by)
        keys = sorted(groups)
        if len(keys) != 2:
            raise CliError(f"need exactly two groups, found {len(keys)}")
        return keys[0], groups[keys[0]], keys[1], groups[keys[1]]
    if args.split is None:
        raise CliError("provide --split or --group-by")
    first, second = ingest.parse_series(data, split=args.split)
    return "first", first, "second", second


def cmd_kde(args):
    name1, s1, name2, s2 = _split_samples(args)
    if len(s1) < 2 or len(s2) < 2:
        raise CliError("each group needs at least two points")
    k1, k2 = kde.fit(s1), kde.fit(s2)
    verdict = ordering.compare(k1, k2)
    report = {
        "inputs": [
            {"name": name1, "kind": "KernelDensityEstimate", "n": k1.n},
            {"name": name2, "kind": "KernelDensityEstimate", "n": k2.n},
        ],
        "bandwidths": [k1.bandwidth, k2.bandwidth],
        "effective_upper_bounds": [
            k1.effective_upper_bound(),
            k2.effective_upper_bound(),
        ],
        "verdict": _verdict_doc(verdict),
    }

    def certificate(t):
        doc = _threshold_doc(t)
        doc["grid"] = doc["grid"][:64]
        doc["scale_shift"] = 1.0 - min(min(s1), min(s2))
        return doc

    return _finish(report, k1, k2, verdict, args.threshold, certificate)


def _parse_graph(spec):
    kind, _, rest = spec.partition(":")
    if kind == "complete":
        return simulate.Graph.complete(int(rest))
    if kind in ("er", "erdos-renyi"):
        parts = rest.split(",")
        n, p = int(parts[0]), float(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        return simulate.Graph.erdos_renyi(n, p, seed=seed)
    if os.path.exists(spec):
        with open(spec) as fh:
            rows = [
                line.split() for line in fh if line.strip() and not line.startswith("#")
            ]
        return simulate.Graph.from_edge_list(rows)
    raise CliError(
        f"unknown graph spec {spec!r}; use complete:N, er:N,p[,seed] or an edge-list file"
    )


def cmd_simulate(args):
    graph = _parse_graph(args.graph)
    config = simulate.OutbreakConfig(
        graph=graph,
        transmission=args.p,
        initial_node=args.initial,
        n_runs=args.runs,
        seed=args.seed,
    )
    hist = simulate.simulate_outbreaks(config)
    counts = dict(zip(hist.sizes, hist.counts))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "sizes": list(range(1, graph.n_nodes + 1)),
                    "counts": [counts.get(s, 0) for s in range(1, graph.n_nodes + 1)],
                    "runs": hist.total,
                    "seed": args.seed,
                }
            )
        )
    else:
        print("size,count")
        for s in range(1, graph.n_nodes + 1):
            print(f"{s},{counts.get(s, 0)}")
    return 0


def _rel_ok(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def _moment_values(d, n):
    return np.exp(d.log_moments(range(1, n + 1))).tolist()


def _reproduce_checks():
    checks = {}

    def example(name, d1, d2, m1, m2, expect_relation, x0_lo, x0_hi):
        def run():
            got1 = _moment_values(d1, len(m1))
            got2 = _moment_values(d2, len(m2))
            for got, want in ((got1, m1), (got2, m2)):
                for g, w in zip(got, want):
                    if not _rel_ok(g, w, 1e-3):
                        return False, f"moment {g:.6g} != {w:.6g}"
            verdict = ordering.compare(d1, d2)
            if verdict.relation is not expect_relation:
                return False, f"verdict {verdict.relation.value}"
            t = ordering.tail_threshold(d1, d2, verdict)
            if not x0_lo <= t.x0 <= x0_hi:
                return False, f"x0 {t.x0:.4g} outside [{x0_lo}, {x0_hi}]"
            return True, f"verdict {verdict.relation.value}, x0 {t.x0:.4g}"

        checks[name] = run

    example(
        "example1",
        Gumbel(31.0063, 1.74346),
        Gumbel(32.0063, 1.74346),
        [30, 905, 27437.3, 835606, 2.55545e7],
        [31, 966, 30243.3, 950906, 3.00162e7],
        ordering.Relation.FIRST_STRICT,
        1.0,
        25.0,
    )
    example(
        "example2",
        Gumbel(6.27294, 2.20532),
        Gumbel(6.19073, 2.06288),
        [5, 33, 219.215, 1654.9, 11957.8],
        [5, 32, 208.895, 1517.51, 10806.8],
        ordering.Relation.SECOND_STRICT,
        4.5,
        6.5,
    )
    example(
        "example3",
        Gamma(260.345, 0.0373929),
        Weibull(20.0, 10.0),
        [9.73504, 95.1351, 933.259, 9190.01, 90839.7],
        [9.73504, 95.1351, 933.041, 9181.69, 90640.2],
        ordering.Relation.SECOND_STRICT,
        9.5,
        11.5,
    )

    def table1():
        groups = fixtures.load_cvss_ratings()
        s1, s2 = groups["scenario1"], groups["scenario2"]
        if not np.allclose(s1.probs, (0.5, 0.5, 0.0), atol=1e-12):
            return False, f"scenario1 pmf {s1.probs}"
        if not np.allclose(s2.probs, (7 / 9, 2 / 9, 0.0), atol=1e-12):
            return False, f"scenario2 pmf {s2.probs}"
        verdict = ordering.compare(s1, s2)
        if verdict.relation is not ordering.Relation.FIRST_STRICT:
            return False, f"verdict {verdict.relation.value}"
        t = ordering.tail_threshold(s1, s2, verdict)
        if t.x0 != "M":
            return False, f"threshold {t.x0!r}"
        return True, "scenario1 preferred, threshold M"

    checks["table1"] = table1

    def table2():
        hists = fixtures.load_outbreak_histograms()
        c1, c2 = hists["config1"], hists["config2"]
        verdict = ordering.compare(c1, c2)
        if verdict.relation is not ordering.Relation.SECOND_STRICT:
            return False, f"verdict {verdict.relation.value}"
        t = ordering.tail_threshold(c1, c2, verdict)
        if t.x0 != 9.0:
            return False, f"x0 {t.x0}"
        return True, "config2 preferred, x0 = 9"

    checks["table2"] = table2

    def nile():
        first, second = fixtures.load_nile(split=50)
        k1, k2 = kde.fit(first), kde.fit(second)
        if not _rel_ok(k1.bandwidth, 79.32, 0.01):
            return False, f"h1 {k1.bandwidth:.4f}"
        if not _rel_ok(k2.bandwidth, 45.28, 0.01):
            return False, f"h2 {k2.bandwidth:.4f}"
        if abs(k1.effective_upper_bound() - 1449.32) > 0.5:
            return False, f"bound1 {k1.effective_upper_bound():.2f}"
        if abs(k2.effective_upper_bound() - 1215.28) > 0.5:
            return False, f"bound2 {k2.effective_upper_bound():.2f}"
        verdict = ordering.compare(k1, k2)
        if verdict.relation is not ordering.Relation.SECOND_STRICT:
            return False, f"verdict {verdict.relation.value}"
        t = ordering.tail_threshold(k1, k2, verdict)
        if not 150.0 <= t.x0 <= 300.0:
            return False, f"x0 {t.x0:.2f}"
        return True, f"second half preferred, x0 {t.x0:.1f} (normalised scale)"

    checks["nile"] = nile

    def cvss():
        scores = fixtures.load_cvss_scores()
        k1 = kde.fit(scores["scenario1"])
        k2 = kde.fit(scores["scenario2"])
        if not _rel_ok(k1.bandwidth, 0.798, 0.01):
            return False, f"h1 {k1.bandwidth:.4f}"
        if not _rel_ok(k2.bandwidth, 0.346, 0.01):
            return False, f"h2 {k2.bandwidth:.4f}"
        verdict = ordering.compare(k1, k2)
        if verdict.relation is not ordering.Relation.SECOND_STRICT:
            return False, f"verdict {verdict.relation.value}"
        return True, "scenario2 preferred"

    checks["cvss"] = cvss
    return checks


def cmd_reproduce(args):
    checks = _reproduce_checks()
    if args.only:
        missing = [n for n in args.only if n not in checks]
        if missing:
            raise CliError(f"unknown checks: {', '.join(missing)}")
        checks = {n: checks[n] for n in args.only}
    failures = 0
    width = max(len(n) for n in checks)
    for name, run in checks.items():
        try:
            ok, detail = run()
        except LossOrderError as exc:
            ok, detail = False, str(exc)
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failures += not ok
    return 1 if failures else 0


def build_parser():
    parser = _Parser(
        prog="lossorder",
        description="Total preference ordering on loss distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compare",
        help="compare two distribution sources",
        description=(
            "Sources: inline specs like gumbel:31.0063,1.74346 (families "
            "gumbel, gamma, weibull, gaussian, pointmass:v), JSON files, "
            "count/rating CSV with a :column selector, or a numeric series "
            "CSV (fitted as a KDE)."
        ),
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--threshold", action="store_true", help="report the tail threshold x0")
    p.add_argument("--moments", type=int, metavar="K", help="report the first K moments")
    p.add_argument("--plot-data", action="store_true", help="report density/survival grids")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("kde", help="fit and compare KDEs of a split series")
    p.add_argument("series", help="numeric series CSV, or a rating CSV with --group-by")
    p.add_argument("--split", type=int, help="index splitting the series into two halves")
    p.add_argument("--group-by", help="column grouping rating rows into two sample sets")
    p.add_argument("--threshold", action="store_true", help="report the tail threshold x0")
    p.set_defaults(func=cmd_kde)

    p = sub.add_parser("simulate", help="simulate outbreak sizes on a graph")
    p.add_argument("--graph", default="complete:20", help="complete:N, er:N,p[,seed], or edge-list file")
    p.add_argument("--p", type=float, required=True, help="transmission probability")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", type=int, default=None, help="initial node (default: uniform per run)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="re-run the reference benchmark checks")
    p.add_argument("--only", nargs="+", metavar="CHECK", help="subset of checks to run")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, LossOrderError, OSError, ValueError) as exc:
        print(f"lossorder: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
