"""outbreak-pipeline: simulate, compare, certify and serialise outbreak sizes.

Each operation takes the next rung of a ladder of transmission
probabilities on one graph: it simulates that configuration with the
ladder's shared seed, compares the result with the previous rung's
histogram, runs ``tail_threshold`` and makes a JSON round trip.  Nearly all
the time goes to ``simulate``; ``_quad`` and ``kde`` are never called, so
this workload is the control on which moment and KDE changes show no change.
"""

import numpy as np

from lossorder import ingest, ordering, simulate

from harness import describe

#: nominal length of one round (both ladders) on a 2-core x86 box
NOMINAL_ROUND_S = 1.0
RUNS = 200
#: (name, graph spec, transmission ladder); rung 0 is simulated at set-up
LADDERS = (
    ("complete:80", ("complete", 80), (0.006, 0.009, 0.012, 0.015, 0.018, 0.021)),
    ("er:400,0.01", ("er", 400, 0.01), (0.15, 0.2, 0.25, 0.3, 0.35, 0.4)),
)


def _graph(spec, seed):
    if spec[0] == "complete":
        return simulate.Graph.complete(spec[1])
    return simulate.Graph.erdos_renyi(spec[1], spec[2], seed=seed)


def _simulate(graph, p, seed):
    config = simulate.OutbreakConfig(graph=graph, transmission=p, n_runs=RUNS, seed=seed)
    return simulate.simulate_outbreaks(config)


def build(seed, workdir, rounds):
    ladders = []
    for name, spec, probs in LADDERS:
        graph = _graph(spec, seed)
        ladders.append({
            "name": name,
            "spec": spec,
            "graph": graph,
            "probs": probs,
            "start": _simulate(graph, probs[0], seed).to_distribution(),
        })
    return {"seed": seed, "ladders": ladders, "oracle": {}}


def _step(graph, p, seed, previous):
    hist = _simulate(graph, p, seed)
    current = hist.to_distribution()
    verdict = ordering.compare(previous, current)
    threshold = None
    if verdict.preferred_index is not None:
        threshold = ordering.tail_threshold(previous, current, verdict)
    back = ingest.from_json(ingest.to_json(current))
    return hist, current, verdict, threshold, back


def run_round(state, session):
    seed = state["seed"]
    for ladder in state["ladders"]:
        previous = ladder["start"]
        for p_prev, p in zip(ladder["probs"], ladder["probs"][1:]):
            value, error, seconds = session.timed(_step, ladder["graph"], p, seed, previous)
            if error:
                failure = describe(error)
            else:
                failure = _check(state, ladder, p_prev, p, value)
                previous = value[1]
            session.record(f"{ladder['name']} p={p}", seconds, failure)


def _oracle_sizes(state, ladder, p):
    """Breadth-first recomputation of every run; cached, since the answer
    for a fixed input does not change between rounds."""
    import oracles

    key = (ladder["name"], p)
    if key not in state["oracle"]:
        spec, seed = ladder["spec"], state["seed"]
        if spec[0] == "complete":
            edges = oracles.complete_edges(spec[1])
        else:
            edges = oracles.erdos_renyi_edges(spec[1], spec[2], seed)
        if list(ladder["graph"].edges) != edges:
            state["oracle"][key] = None
        else:
            state["oracle"][key] = oracles.outbreak_sizes(spec[1], edges, p, seed, RUNS)
    return state["oracle"][key]


def _check(state, ladder, p_prev, p, value):
    import checks
    import oracles

    hist, current, verdict, threshold, back = value
    n_nodes = ladder["graph"].n_nodes
    sizes = _oracle_sizes(state, ladder, p)
    if sizes is None:
        return "graph edges differ from the documented construction"
    if reason := checks.histogram(hist.sizes, hist.counts, n_nodes, RUNS, sizes):
        return reason
    # shared per-run draws: every edge kept at p_prev is kept at p, so each
    # run's outbreak can only grow and the lower rung is never worse
    got = verdict.relation.value
    if got not in ("FirstStrictlyPreferred", "Equivalent"):
        return f"relation {got}: the lower transmission probability {p_prev} lost to {p}"
    if back.bin_values != current.bin_values or back.counts != current.counts:
        return "JSON round trip changed the histogram"
    if threshold is None:
        return None if got == "Equivalent" else "strict verdict without a certificate"
    prev_sizes = _oracle_sizes(state, ladder, p_prev)
    support = np.arange(1, n_nodes + 1)
    return checks.certificate(
        threshold.x0,
        threshold.grid,
        verdict.preferred_index,
        oracles.logsf_discrete(support, [prev_sizes.count(s) for s in support]),
        oracles.logsf_discrete(support, [sizes.count(s) for s in support]),
        extra=support[support > threshold.x0],
    )
