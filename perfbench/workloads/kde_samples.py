"""kde-samples: Gaussian KDEs fitted to seeded synthetic loss samples.

A round has three kinds of operation: fit two KDEs and run ``compare`` and
``tail_threshold`` on them, at a small and at a large sample size; report
``log_moment(k)`` for k = 1..5; and compare one KDE with Gamma and Weibull
members.  ``kde`` work grows with the sample count, so KDE and memory
changes show here, and ``_quad`` runs with an expensive integrand.
"""

import math

import numpy as np

from lossorder import kde, ordering
from lossorder.distributions import Gamma, Weibull

from harness import describe

#: nominal length of one round on a 2-core x86 box
NOMINAL_ROUND_S = 3.0
SMALL, LARGE = 100, 2000
#: log_moment's quadrature holds a (nodes x samples) matrix, so keep n small
MOMENT_N = 100
MOMENT_ORDERS = (1, 2, 3, 4, 5)
#: Gamma and Weibull members with tails heavier than any Gaussian kernel's,
#: so the order is fixed: the KDE is preferred
PARAMETRIC = (("gamma", 3.0, 4.0), ("weibull", 1.5, 20.0))


def _pair(rng, n):
    """Heavier Gamma-shaped and lighter Weibull-shaped losses, both >= 1."""
    heavy = 1.0 + rng.gamma(3.0, 2.0, n)
    light = 1.0 + 4.0 * rng.weibull(2.0, n)
    return heavy.tolist(), light.tolist()


def build(seed, workdir, rounds):
    """Inputs for every round; round r draws its samples from [seed, r], so
    a run's figures average over ``rounds`` sample sets."""
    out = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        moment_samples = _pair(rng, MOMENT_N)[0]
        out.append({
            "pairs": [_pair(rng, SMALL), _pair(rng, LARGE)],
            "moment_samples": moment_samples,
            "moment_kde": kde.fit(moment_samples),
        })
    members = {spec: (Gamma if spec[0] == "gamma" else Weibull)(spec[1], spec[2]) for spec in PARAMETRIC}
    return {"rounds": out, "members": members, "next": 0}


def _fit_compare(first, second):
    k1, k2 = kde.fit(first), kde.fit(second)
    verdict = ordering.compare(k1, k2)
    return k1, k2, verdict, ordering.tail_threshold(k1, k2, verdict)


def _versus(k, member):
    verdict = ordering.compare(k, member)
    threshold = None
    if verdict.preferred_index is not None:
        threshold = ordering.tail_threshold(k, member, verdict)
    return verdict, threshold


def run_round(state, session):
    inputs = state["rounds"][state["next"]]
    state["next"] += 1
    for first, second in inputs["pairs"]:
        value, error, seconds = session.timed(_fit_compare, first, second)
        failure = describe(error) if error else _check_pair(first, second, *value)
        session.record(f"kde pair n={len(first)}", seconds, failure)
    k, samples = inputs["moment_kde"], inputs["moment_samples"]
    for order in MOMENT_ORDERS:
        value, error, seconds = session.timed(k.log_moment, order)
        failure = describe(error) if error else _check_moment(samples, order, value)
        session.record(f"kde log_moment({order})", seconds, failure)
    for spec, member in state["members"].items():
        value, error, seconds = session.timed(_versus, k, member)
        failure = describe(error) if error else _check_versus(samples, spec, *value)
        session.record(f"kde vs {spec[0]}({spec[1]}, {spec[2]})", seconds, failure)


def _check_pair(first, second, k1, k2, verdict, threshold):
    import checks
    import oracles

    h = [oracles.nrd0(first), oracles.nrd0(second)]
    for got, want in zip((k1.bandwidth, k2.bandwidth), h):
        if abs(got - want) > 1e-9 * want:
            return f"bandwidth {got!r}, nrd0 gives {want!r}"
    bounds = [max(first) + h[0], max(second) + h[1]]
    want = "FirstStrictlyPreferred" if bounds[0] < bounds[1] else "SecondStrictlyPreferred"
    if reason := checks.relation(verdict.relation.value, want):
        return reason
    shift = 1.0 - min(min(first), min(second))
    return checks.certificate(
        threshold.x0,
        threshold.grid,
        verdict.preferred_index,
        oracles.logsf_mixture(np.asarray(first) + shift, h[0]),
        oracles.logsf_mixture(np.asarray(second) + shift, h[1]),
        extra=checks.beyond(threshold.grid[-1][0]),
    )


def _check_moment(samples, order, log_moment):
    import checks
    import oracles

    want = float(oracles.mixture_moment(samples, oracles.nrd0(samples), order))
    return checks.moments([math.exp(log_moment)], [want], 1e-8)


def _check_versus(samples, spec, verdict, threshold):
    import checks
    import oracles

    if reason := checks.relation(verdict.relation.value, "FirstStrictlyPreferred"):
        return reason
    member = oracles.logsf_gamma(*spec[1:]) if spec[0] == "gamma" else oracles.logsf_weibull(*spec[1:])
    return checks.certificate(
        threshold.x0,
        threshold.grid,
        verdict.preferred_index,
        oracles.logsf_mixture(samples, oracles.nrd0(samples)),
        member,
        extra=checks.beyond(threshold.grid[-1][0]),
    )
