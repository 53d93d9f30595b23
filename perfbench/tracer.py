"""Spans around calls into lossorder's modules, for traced runs only.

``install`` replaces module functions and methods with timing wrappers.  A
name bound with ``from ... import`` is wrapped in every module that looks it
up (``log_power_integral`` lives in ``_quad`` and ``distributions``;
``ordering`` imports it at call time from ``_quad``).  Spans are kept in
memory and written out by the caller when the run ends.  A few private
helpers are wrapped for counting only, without a span: quadrature passes,
ladder pairs and inverse-survival searches.
"""

import functools
from collections import Counter
from time import perf_counter

import numpy as np

DECIDED_BY = (
    "CategoricalLex",
    "DerivativeLex",
    "EffectiveBound",
    "MomentDominance",
    "PointMassRule",
    "RatioCriterion",
    "SupportBound",
    "TruncationLadder",
)
MOMENT_KINDS = ("parametric", "truncated", "piecewise", "kde", "other")


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index, operation id]
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._last_panels = 0

    def wrap(self, owner, attr, name, after=None):
        """Time every call of ``owner.attr`` as a span called ``name`` (a
        string, or a callable of the call's arguments)."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            label = name(args) if callable(name) else name
            spans.append([label, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][1:3] = start, perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def count(self, owner, attr, hook):
        """Call ``hook(args)`` before every call of ``owner.attr``."""
        func = owner.__dict__[attr]

        @functools.wraps(func)
        def counted(*args, **kwargs):
            hook(args)
            return func(*args, **kwargs)

        setattr(owner, attr, counted)

    def totals(self):
        """Calls and self time (ms) per span name, plus the counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, self_ms = Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_ms[name] += (end - start - child) * 1e3
        return {"calls": dict(calls), "self_ms": dict(self_ms), "counts": dict(self.counts)}


def install(tracer):
    from lossorder import _quad, distributions, fixtures, ingest, kde, ordering, simulate

    c = tracer.counts

    for fn in ("parse_ratings", "parse_counts", "parse_series", "to_json", "from_json"):
        tracer.wrap(ingest, fn, f"ingest.{fn}")
    for fn in ("parse_ratings", "parse_counts", "parse_series"):
        tracer.wrap(fixtures, fn, f"ingest.{fn}")

    def moment_kind(args):
        d = args[0]
        if isinstance(d, distributions.ParametricDistribution):
            kind = "parametric"
        elif isinstance(d, distributions.TruncatedDistribution):
            kind = "truncated"
        elif isinstance(d, distributions.PiecewisePolyDensity):
            kind = "piecewise"
        elif isinstance(d, kde.KernelDensityEstimate):
            kind = "kde"
        else:
            kind = "other"
        return f"distributions.log_moment.{kind}"

    tracer.wrap(distributions.LossDistribution, "log_moment", moment_kind)

    def panels(args):
        n = len(args[0]) - 1
        c["quad.rounds"] += 1
        c["quad.nodes"] += n * _quad._GL_ORDER
        tracer._last_panels = n

    def cap(args, result):
        c["quad.cap_hits"] += tracer._last_panels >= _quad._MAX_PANELS

    tracer.count(_quad, "_panel_points", panels)
    for owner in (_quad, distributions):
        tracer.wrap(owner, "log_power_integral", "quad.log_power_integral", after=cap)
    for owner in (_quad, distributions, kde):
        tracer.count(owner, "expand_bound", lambda args: c.update(["quad.expand_bound.calls"]))

    def kernel_evals(metric):
        def after(args, result):
            c[metric] += int(np.size(args[1])) * args[0].n

        return after

    tracer.wrap(kde, "fit", "kde.fit")
    tracer.wrap(kde.KernelDensityEstimate, "sf", "kde.sf", after=kernel_evals("kde.sf.kernel_evals"))
    tracer.wrap(kde.KernelDensityEstimate, "logpdf", "kde.logpdf", after=kernel_evals("kde.logpdf.kernel_evals"))
    tracer.wrap(kde.KernelDensityEstimate, "isf", "kde.isf")
    for owner in (kde, ordering):
        tracer.wrap(owner, "compare_kdes", "kde.compare_kdes")

    def decided(args, verdict):
        c[f"ordering.decided_by.{verdict.decided_by}"] += 1

    tracer.wrap(ordering, "compare", "ordering.compare", after=decided)
    for fn in (
        "compare_extended",
        "compare_smooth",
        "compare_categorical",
        "compare_point_mass",
        "compare_moment_sequences",
        "moment_sequence",
        "tail_threshold",
    ):
        tracer.wrap(ordering, fn, f"ordering.{fn}")
    tracer.count(ordering, "_isf", lambda args: c.update(["ordering.isf.calls"]))
    tracer.count(ordering, "_ladder_verdicts", lambda args: c.update({"ordering.ladder_pairs": len(args[0])}))

    def draws(args, result):
        config = args[0]
        c["simulate.runs"] += config.n_runs
        c["simulate.edge_draws"] += config.n_runs * len(config.graph.edges)

    tracer.wrap(simulate, "simulate_outbreaks", "simulate.simulate_outbreaks", after=draws)
    for fn in ("complete", "erdos_renyi", "from_edge_list"):
        tracer.wrap(simulate.Graph, fn, "simulate.graph_build")


def scipy_stats_ms(importtime_log):
    """Import time (ms) that ``scipy.stats`` adds, from ``-X importtime``.

    scipy loads ``scipy.stats`` lazily through ``importlib``, which the log
    does not show, so this sums the cumulative times of the outermost
    ``scipy.stats*`` lines: everything scipy.stats imported that was not
    loaded before it.
    """
    rows = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        if module == "scipy.stats" or module.startswith("scipy.stats."):
            rows.append((len(parts[2]) - len(parts[2].lstrip()), int(parts[1])))
    if not rows:
        return 0.0
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1e3


def merge(into, totals):
    for part in ("calls", "self_ms", "counts"):
        into.setdefault(part, Counter()).update(totals.get(part, {}))
    return into


def layer_metrics(totals, cli):
    """Per-layer metrics from merged span totals and the CLI timings
    (``cli`` holds import_ms, scipy_stats_import_ms and main_ms)."""
    calls = Counter(totals.get("calls", {}))
    self_ms = Counter(totals.get("self_ms", {}))
    counts = Counter(totals.get("counts", {}))

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "cli.import_ms": (cli["import_ms"], "ms"),
        "cli.scipy_stats_import_ms": (cli["scipy_stats_import_ms"], "ms"),
        "cli.main_ms": (cli["main_ms"], "ms"),
        "ingest.calls": (prefixed(calls, "ingest."), "count"),
        "ingest.self_ms": (prefixed(self_ms, "ingest."), "ms"),
        "distributions.log_moment.calls": (prefixed(calls, "distributions.log_moment."), "count"),
        "distributions.log_moment.self_ms": (prefixed(self_ms, "distributions.log_moment."), "ms"),
    }
    for kind in MOMENT_KINDS:
        name = f"distributions.log_moment.{kind}"
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_ms"] = (self_ms[name], "ms")
    m.update({
        "quad.log_power_integral.calls": (calls["quad.log_power_integral"], "count"),
        "quad.log_power_integral.self_ms": (self_ms["quad.log_power_integral"], "ms"),
        "quad.rounds": (counts["quad.rounds"], "count"),
        "quad.nodes": (counts["quad.nodes"], "count"),
        "quad.cap_hits": (counts["quad.cap_hits"], "count"),
        "quad.expand_bound.calls": (counts["quad.expand_bound.calls"], "count"),
        "kde.fit.self_ms": (self_ms["kde.fit"], "ms"),
        "kde.sf.kernel_evals": (counts["kde.sf.kernel_evals"], "count"),
        "kde.sf.self_ms": (self_ms["kde.sf"], "ms"),
        "kde.logpdf.kernel_evals": (counts["kde.logpdf.kernel_evals"], "count"),
        "kde.logpdf.self_ms": (self_ms["kde.logpdf"], "ms"),
        "kde.isf.calls": (calls["kde.isf"], "count"),
        "ordering.compare.calls": (calls["ordering.compare"], "count"),
        "ordering.compare.self_ms": (self_ms["ordering.compare"], "ms"),
    })
    for rule in DECIDED_BY:
        m[f"ordering.decided_by.{rule}"] = (counts[f"ordering.decided_by.{rule}"], "count")
    m.update({
        "ordering.compare_extended.self_ms": (self_ms["ordering.compare_extended"], "ms"),
        "ordering.ladder_pairs": (counts["ordering.ladder_pairs"], "count"),
        "ordering.moment_sequence.calls": (calls["ordering.moment_sequence"], "count"),
        "ordering.moment_sequence.self_ms": (self_ms["ordering.moment_sequence"], "ms"),
        "ordering.tail_threshold.self_ms": (self_ms["ordering.tail_threshold"], "ms"),
        "ordering.isf.calls": (counts["ordering.isf.calls"], "count"),
        "simulate.simulate_outbreaks.self_ms": (self_ms["simulate.simulate_outbreaks"], "ms"),
        "simulate.runs": (counts["simulate.runs"], "count"),
        "simulate.edge_draws": (counts["simulate.edge_draws"], "count"),
        "simulate.graph_build_ms": (self_ms["simulate.graph_build"], "ms"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
