"""Benchmark of lossorder, run against the sources of this checkout.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Checks the benchmark's own checks, builds the workload's inputs from the
seed, times the set-up in fresh interpreters, then runs whole rounds of the
workload (their count is fixed by ``--seconds`` and the workload's nominal
round length) and checks every output.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See perfbench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import BENCH, ROOT, SRC, Session

WORKLOADS = {
    "cli-session": "cli_session",
    "parametric-tournament": "tournament",
    "kde-samples": "kde_samples",
    "outbreak-pipeline": "outbreak",
}
#: fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 5
#: below this many operations a run has no tail; op_tail_ms is then the median
TAIL_MIN_OPS = 40
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe(module, seed, rounds, workdir, env, trace):
    """Wall time of one fresh interpreter that imports lossorder and builds
    the inputs; in traced runs also its import and scipy.stats times (ms)."""
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(BENCH / "probe.py"),
           module, str(seed), str(rounds), str(workdir)]
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    seconds = perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    import_ms = json.loads(done.stdout.strip().splitlines()[-1])["import_ms"]
    if not trace:
        return seconds, import_ms, None
    import tracer as tracing

    return seconds, import_ms, tracing.scipy_stats_ms(done.stderr)


def tail(latencies):
    """The highest percentile with at least 10 operations beyond it, and the
    percentile itself.  With fewer than TAIL_MIN_OPS operations that would
    be no tail, so it is the median (p50)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_OPS:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(session, setup, workload):
    lat = [op.seconds for op in session.ops]
    ok = sum(op.failure is None for op in session.ops)
    tail_s, percentile = tail(lat)
    if workload == "cli-session":
        rss_kib = session.child_maxrss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"perfbench: {len(lat)} operations, op_tail_ms is p{percentile:.2f}", file=sys.stderr)
    metrics = {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(s for s, _, _ in setup), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(session, tracer, setup, workload):
    import tracer as tracing

    totals = tracing.merge(tracing.merge({}, tracer.totals()), session.child_totals)
    samples = session.cli_samples
    if workload != "cli-session":
        samples = {"import_ms": [i for _, i, _ in setup],
                   "scipy_stats_import_ms": [s for _, _, s in setup],
                   "main_ms": []}
    cli = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    return tracing.layer_metrics(totals, cli)


def write_trace(path, tracer, session):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "names": names,
        "spans": [[index[n], a, b, p, op] for n, a, b, p, op in tracer.spans],
        "children": session.child_spans,
        "ops": [[op.name, op.seconds, op.failure] for op in session.ops],
    }
    path.write_text(json.dumps(doc))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lossorder" / "__init__.py").is_file():
        print(f"perfbench: no lossorder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    import selftest

    problems = selftest.run()
    if problems:
        print("perfbench: the benchmark's checks are broken: " + "; ".join(problems), file=sys.stderr)
        return 3

    import lossorder

    if not Path(lossorder.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported lossorder from {lossorder.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name = WORKLOADS[args.workload]
    module = importlib.import_module(f"workloads.{name}")
    scratch = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        session = Session(tracer)
        rounds = max(1, round(args.seconds / module.NOMINAL_ROUND_S))
        state = module.build(args.seed, scratch / "inputs", rounds)
        setup = [probe(name, args.seed, rounds, scratch / f"probe{i}", session.child_env, args.trace)
                 for i in range(SETUP_PROBES)]
        for _ in range(rounds):
            module.run_round(state, session)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [op for op in session.ops if op.failure is not None]
    unexpected = [op for op in failed if op.fault is None]
    if tracer is not None:
        metrics = per_layer(session, tracer, setup, args.workload)
        write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", tracer, session)
    else:
        metrics = end_to_end(session, setup, args.workload)
    result = {
        "correct": not unexpected,
        "attempted": len(session.ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    ops = [[op.name, op.seconds, op.failure, op.fault] for op in session.ops]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, ops=ops)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
