"""cli-session: ``lossorder`` subcommands, each in a fresh interpreter.

One caller runs one child interpreter at a time and waits for it.  Import
takes most of every call, so import cost, ``cli`` and ``ingest`` show here
(and elsewhere only in ``setup_s``).  A round is one pass over the session's
calls.
"""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

from harness import BENCH, ROOT, describe

#: nominal length of one pass over the session on a 2-core x86 box
NOMINAL_ROUND_S = 16.0
DATA = "src/lossorder/data"
EXIT = {
    "FirstStrictlyPreferred": 0,
    "SecondStrictlyPreferred": 1,
    "Equivalent": 2,
    "Incomparable": 3,
}
FIRST, SECOND = "FirstStrictlyPreferred", "SecondStrictlyPreferred"
#: paper examples 1-3: inline specs, stated relation, published first moments
EXAMPLES = (
    ("example1", ("gumbel", 31.0063, 1.74346), ("gumbel", 32.0063, 1.74346), FIRST,
     (30, 905, 27437.3, 835606, 2.55545e7), (31, 966, 30243.3, 950906, 3.00162e7)),
    ("example2", ("gumbel", 6.27294, 2.20532), ("gumbel", 6.19073, 2.06288), SECOND,
     (5, 33, 219.215, 1654.9, 11957.8), (5, 32, 208.895, 1517.51, 10806.8)),
    ("example3", ("gamma", 260.345, 0.0373929), ("weibull", 20.0, 10.0), SECOND,
     (9.73504, 95.1351, 933.259, 9190.01, 90839.7), (9.73504, 95.1351, 933.041, 9181.69, 90640.2)),
)
#: CVSS coarsening used by the rating table: rank 3 = H, 2 = M, 1 = L
RANK_OF_LABEL = {"H": 3.0, "M": 2.0, "L": 1.0}
HIST_VALUES = tuple(range(1, 13))
SIM_NODES = 20
SIM_RUNS = 300


def _spec(s):
    return f"{s[0]}:{s[1]},{s[2]}"


def build(seed, workdir, rounds):
    """Write the seeded JSON inputs and lay out the session's calls."""
    rng = np.random.default_rng([seed, 11])
    weights = [rng.integers(1, 40, len(HIST_VALUES)).tolist() for _ in range(2)]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, w in zip(("first", "second"), weights):
        total = sum(w)
        doc = {"kind": "histogram", "support": list(map(float, HIST_VALUES)),
               "pmf": [c / total for c in w], "total": total}
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    p = round(0.05 + 0.1 * float(rng.random()), 4)
    calls = [(name, ["compare", _spec(a), _spec(b), "--threshold", "--moments", "5"])
             for name, a, b, *_ in EXAMPLES]
    calls += [
        ("table1", ["compare", f"{DATA}/table1.csv:scenario1", f"{DATA}/table1.csv:scenario2", "--threshold"]),
        ("table2", ["compare", f"{DATA}/table2.csv:config1", f"{DATA}/table2.csv:config2", "--threshold"]),
        ("json", ["compare", *paths, "--threshold"]),
        ("kde-nile", ["kde", f"{DATA}/nile.csv", "--split", "50", "--threshold"]),
        ("kde-table1", ["kde", f"{DATA}/table1.csv", "--group-by", "scenario"]),
        ("simulate", ["simulate", "--graph", f"complete:{SIM_NODES}", "--p", str(p),
                      "--runs", str(SIM_RUNS), "--seed", str(seed), "--format", "json"]),
        ("reproduce", ["reproduce"]),
    ]
    return {"calls": calls, "weights": weights, "p": p, "seed": seed, "workdir": workdir}


def _run(session, argv, workdir, index):
    """Run one CLI call in a fresh interpreter; returns (exit code, stdout,
    peak RSS in KiB).  In traced runs a wrapper times import and main."""
    if session.trace:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"),
               str(workdir / f"child{index}.json"), *argv]
    else:
        cmd = [sys.executable, "-m", "lossorder.cli", *argv]
    with open(workdir / f"stderr{index}", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=session.child_env, stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss


def run_round(state, session):
    workdir = state["workdir"]
    for name, argv in state["calls"]:
        index = len(session.ops)
        value, error, seconds = session.timed(_run, session, argv, workdir, index)
        if error:
            session.record(name, seconds, describe(error))
            continue
        code, out, maxrss = value
        session.child_maxrss_kib = max(session.child_maxrss_kib, maxrss)
        if session.trace:
            import tracer as tracing

            child = json.loads((workdir / f"child{index}.json").read_text())
            stderr = (workdir / f"stderr{index}").read_text(errors="replace")
            session.cli_samples["import_ms"].append(child["import_ms"])
            session.cli_samples["main_ms"].append(child["main_ms"])
            session.cli_samples["scipy_stats_import_ms"].append(tracing.scipy_stats_ms(stderr))
            tracing.merge(session.child_totals, child["totals"])
            session.child_spans.append({"op": index, "call": name, "spans": child["spans"]})
        if code == 10:
            err = (workdir / f"stderr{index}").read_text(errors="replace").strip().splitlines()
            session.record(name, seconds, f"exit code 10: {err[-1] if err else ''}")
            continue
        try:
            failure = CHECKS[name](state, name, code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"unreadable output: {describe(exc)}"
        session.record(name, seconds, failure)


def _verdict(code, doc):
    relation = doc["verdict"]["relation"]
    if EXIT[relation] != code:
        return relation, f"exit code {code} does not match the verdict {relation}"
    return relation, None


def _check_example(state, name, code, out):
    import checks
    import oracles

    _, a, b, want, pub1, pub2 = next(e for e in EXAMPLES if e[0] == name)
    doc = json.loads(out)
    relation, reason = _verdict(code, doc)
    reason = reason or checks.relation(relation, want)
    if reason:
        return reason
    moment_fn = {"gumbel": oracles.gumbel_min_moments, "gamma": oracles.gamma_moments,
                 "weibull": oracles.weibull_moments}
    logsf_fn = {"gumbel": oracles.logsf_gumbel_min, "gamma": oracles.logsf_gamma,
                "weibull": oracles.logsf_weibull}
    for key, spec, published in (("first", a, pub1), ("second", b, pub2)):
        got = doc["moments"][key]
        reason = (checks.moments(got, moment_fn[spec[0]](spec[1], spec[2], 5), 1e-6)
                  or checks.moments(got, published, 1e-3))
        if reason:
            return f"{key}: {reason}"
    cert = doc["x0"]
    return checks.certificate(cert["x0"], cert["grid"], EXIT[relation],
                              logsf_fn[a[0]](a[1], a[2]), logsf_fn[b[0]](b[1], b[2]),
                              extra=checks.beyond(cert["grid"][-1][0]))


def _read_csv(name):
    with open(ROOT / DATA / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _rating_weights(scores):
    """Counts of L, M, H (ranks 1, 2, 3) under the CVSS coarsening."""
    labels = ["H" if s >= 8 else "M" if s >= 3 else "L" for s in scores]
    return [labels.count("L"), labels.count("M"), labels.count("H")]


def _scores(group):
    return [float(r["cvss"]) for r in _read_csv("table1.csv") if r["scenario"] == group]


def _check_table1(state, name, code, out):
    import checks
    import oracles

    doc = json.loads(out)
    relation, reason = _verdict(code, doc)
    reason = reason or checks.relation(relation, FIRST)
    if reason:
        return reason
    cert = doc["x0"]
    if cert["x0"] != "M":
        return f"threshold {cert['x0']!r}, the paper gives M"
    ranks = [1.0, 2.0, 3.0]
    return checks.certificate(RANK_OF_LABEL["M"], cert["grid"], EXIT[relation],
                              oracles.logsf_discrete(ranks, _rating_weights(_scores("scenario1"))),
                              oracles.logsf_discrete(ranks, _rating_weights(_scores("scenario2"))),
                              extra=[3.0])


def _check_histograms(code, out, want, values, weights, published_x0=None):
    import checks
    import oracles

    doc = json.loads(out)
    relation, reason = _verdict(code, doc)
    reason = reason or checks.relation(relation, want)
    if reason or relation not in (FIRST, SECOND):
        return reason
    cert = doc["x0"]
    if published_x0 is not None and cert["x0"] != published_x0:
        return f"x0 {cert['x0']!r}, the paper gives {published_x0}"
    values = np.asarray(values, dtype=float)
    return checks.certificate(cert["x0"], cert["grid"], EXIT[relation],
                              oracles.logsf_discrete(values, weights[0]),
                              oracles.logsf_discrete(values, weights[1]),
                              extra=values[values > cert["x0"]])


def _check_table2(state, name, code, out):
    rows = _read_csv("table2.csv")
    values = [float(r["size"]) for r in rows]
    weights = [[int(r["config1"]) for r in rows], [int(r["config2"]) for r in rows]]
    return _check_histograms(code, out, SECOND, values, weights, published_x0=9.0)


def _lex(weights):
    """The order on a common finite support: the smaller mass at the highest
    value where the two differ is preferred."""
    pa, pb = (([Fraction(c, sum(w)) for c in w]) for w in weights)
    for a, b in zip(reversed(pa), reversed(pb)):
        if a != b:
            return FIRST if a < b else SECOND
    return "Equivalent"


def _check_json(state, name, code, out):
    weights = state["weights"]
    return _check_histograms(code, out, _lex(weights), HIST_VALUES, weights)


def _kde_groups(name):
    if name == "kde-nile":
        flows = [float(r["flow"]) for r in _read_csv("nile.csv")]
        return flows[:50], flows[50:]
    return _scores("scenario1"), _scores("scenario2")


def _check_kde(state, name, code, out):
    import checks
    import oracles

    first, second = _kde_groups(name)
    doc = json.loads(out)
    relation, reason = _verdict(code, doc)
    if reason:
        return reason
    h = [oracles.nrd0(first), oracles.nrd0(second)]
    bounds = [max(first) + h[0], max(second) + h[1]]
    for key, got, want in (("bandwidth", doc["bandwidths"], h), ("effective bound", doc["effective_upper_bounds"], bounds)):
        for g, w in zip(got, want):
            if abs(g - w) > 1e-9 * abs(w):
                return f"{key} {g!r}, expected {w!r}"
    # both published KDE workflows prefer the second group
    want = FIRST if bounds[0] < bounds[1] else SECOND
    reason = checks.relation(relation, want) or checks.relation(relation, SECOND)
    if reason or "x0" not in doc:
        return reason
    cert = doc["x0"]
    shift = 1.0 - min(min(first), min(second))
    if abs(cert["scale_shift"] - shift) > 1e-12 * max(1.0, abs(shift)):
        return f"scale shift {cert['scale_shift']!r}, expected {shift!r}"
    return checks.certificate(cert["x0"], cert["grid"], EXIT[relation],
                              oracles.logsf_mixture(np.asarray(first) + shift, h[0]),
                              oracles.logsf_mixture(np.asarray(second) + shift, h[1]),
                              extra=checks.beyond(cert["grid"][-1][0]))


def _check_simulate(state, name, code, out):
    import checks
    import oracles

    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    if doc["runs"] != SIM_RUNS or doc["seed"] != state["seed"]:
        return f"report echoes runs={doc['runs']} seed={doc['seed']}"
    sizes = oracles.outbreak_sizes(SIM_NODES, oracles.complete_edges(SIM_NODES), state["p"], state["seed"], SIM_RUNS)
    return checks.histogram(doc["sizes"], doc["counts"], SIM_NODES, SIM_RUNS, sizes)


def _check_reproduce(state, name, code, out):
    lines = out.strip().splitlines()
    failing = [line for line in lines if line.split()[1:2] != ["pass"]]
    if code != 0 or failing or len(lines) != 7:
        return f"exit code {code}, {len(lines)} checks, failing: {failing[:2]}"
    return None


CHECKS = {
    "example1": _check_example,
    "example2": _check_example,
    "example3": _check_example,
    "table1": _check_table1,
    "table2": _check_table2,
    "json": _check_json,
    "kde-nile": _check_kde,
    "kde-table1": _check_kde,
    "simulate": _check_simulate,
    "reproduce": _check_reproduce,
}
