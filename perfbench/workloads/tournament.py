"""parametric-tournament: ``compare`` on every ordered pair of a fixed pool,
plus ``tail_threshold`` when the verdict is strict.

The truncation ladder, moment quadrature and ``tail_threshold`` do nearly
all the work here; ``kde`` and ``simulate`` stay idle.  The pool does not
depend on the seed, so the operations that fail are the same in every run;
the seed fixes the order in which the pairs are visited.
"""

import math
import random

from lossorder import ordering
from lossorder.distributions import Gamma, Gaussian, Gumbel, PiecewisePolyDensity, PointMass, Weibull, truncate

from harness import describe

#: nominal length of one pass over the pool on a 2-core x86 box
NOMINAL_ROUND_S = 15.0

_GAUSSIAN = ("gaussian", 10.0, 2.0)
POOL = {
    # paper examples 1-3
    "gumbel_ex1a": ("gumbel", 31.0063, 1.74346),
    "gumbel_ex1b": ("gumbel", 32.0063, 1.74346),
    "gumbel_ex2a": ("gumbel", 6.27294, 2.20532),
    "gumbel_ex2b": ("gumbel", 6.19073, 2.06288),
    "gamma_ex3": ("gamma", 260.345, 0.0373929),
    "weibull_ex3": ("weibull", 20.0, 10.0),
    # other family members
    "gaussian_10_2": _GAUSSIAN,
    "weibull_2_5": ("weibull", 2.0, 5.0),
    "gamma_3_2": ("gamma", 3.0, 2.0),
    # compact densities ending at a common right endpoint
    "uniform_1_20": ("piecewise", (1.0, 20.0), ((1.0 / 19.0,),)),
    "gaussian_10_2_on_1_20": ("truncated", _GAUSSIAN, 1.0, 20.0),
    "point_3": ("point", 3.0),
}

#: relations the paper states for its three examples
PAPER = {
    ("gumbel_ex1a", "gumbel_ex1b"): "FirstStrictlyPreferred",
    ("gumbel_ex2a", "gumbel_ex2b"): "SecondStrictlyPreferred",
    ("gamma_ex3", "weibull_ex3"): "SecondStrictlyPreferred",
}

#: F2: strict ladder verdicts that no threshold certifies
F2 = {
    frozenset({"gaussian_10_2", "weibull_2_5"}),
    frozenset({"gumbel_ex2b", "weibull_ex3"}),
}
#: F3: strict verdicts the far tail reverses: the survival curves cross
#: again beyond the certificate grid, where both underflow on the linear scale
F3 = {
    frozenset(pair)
    for pair in (
        ("gamma_ex3", "gaussian_10_2"),
        ("gamma_ex3", "gumbel_ex1a"),
        ("gamma_ex3", "gumbel_ex1b"),
        ("gamma_ex3", "weibull_2_5"),
        ("gaussian_10_2", "gumbel_ex1a"),
        ("gaussian_10_2", "gumbel_ex1b"),
        ("gumbel_ex1a", "gumbel_ex2a"),
        ("gumbel_ex1a", "gumbel_ex2b"),
        ("gumbel_ex1a", "weibull_2_5"),
        ("gumbel_ex1a", "weibull_ex3"),
        ("gumbel_ex1b", "gumbel_ex2a"),
        ("gumbel_ex1b", "gumbel_ex2b"),
        ("gumbel_ex1b", "weibull_2_5"),
        ("gumbel_ex1b", "weibull_ex3"),
        ("gumbel_ex2a", "weibull_ex3"),
    )
}

_FAMILIES = {"gumbel": Gumbel, "gamma": Gamma, "weibull": Weibull, "gaussian": Gaussian}
_SWAP = {"FirstStrictlyPreferred": "SecondStrictlyPreferred", "SecondStrictlyPreferred": "FirstStrictlyPreferred"}


def make(spec):
    kind = spec[0]
    if kind in _FAMILIES:
        return _FAMILIES[kind](spec[1], spec[2])
    if kind == "piecewise":
        return PiecewisePolyDensity(spec[1], [list(c) for c in spec[2]])
    if kind == "truncated":
        return truncate(make(spec[1]), spec[2], spec[3])
    return PointMass(spec[1])


def upper(spec):
    kind = spec[0]
    if kind in _FAMILIES:
        return math.inf
    if kind == "piecewise":
        return spec[1][-1]
    if kind == "truncated":
        return spec[3]
    return spec[1]


def fault(a, b):
    """Known program fault an ordered pair runs into, or None (README,
    "Known faults")."""
    sa, sb = POOL[a], POOL[b]
    if "point" not in (sa[0], sb[0]) and math.isinf(upper(sa)) != math.isinf(upper(sb)):
        return "F1"
    if frozenset({a, b}) in F2:
        return "F2"
    if frozenset({a, b}) in F3:
        return "F3"
    return None


def build(seed, workdir, rounds):
    pairs = [(a, b) for a in POOL for b in POOL if a != b]
    random.Random(seed).shuffle(pairs)
    return {"members": {name: make(spec) for name, spec in POOL.items()}, "pairs": pairs}


def _compare(d1, d2):
    verdict = ordering.compare(d1, d2)
    threshold = None
    if verdict.preferred_index is not None:
        threshold = ordering.tail_threshold(d1, d2, verdict)
    return verdict, threshold


def run_round(state, session):
    members = state["members"]
    outcomes = {}
    for a, b in state["pairs"]:
        value, error, seconds = session.timed(_compare, members[a], members[b])
        outcomes[a, b] = (value, error, seconds)
    for a, b in state["pairs"]:
        value, error, seconds = outcomes[a, b]
        failure = describe(error) if error is not None else _check(a, b, value, outcomes[b, a])
        session.record(f"{a} vs {b}", seconds, failure, fault(a, b) if failure else None)


def expected(a, b):
    """Relation of (a, b) wherever theory fixes it, else None."""
    if (a, b) in PAPER:
        return PAPER[a, b]
    if (b, a) in PAPER:
        return _SWAP[PAPER[b, a]]
    sa, sb = POOL[a], POOL[b]
    ua, ub = upper(sa), upper(sb)
    first, second = "FirstStrictlyPreferred", "SecondStrictlyPreferred"
    if sa[0] == "point" or sb[0] == "point":
        # a sure loss v beats any option that can exceed v, and loses to one that cannot
        if sa[0] == "point" and sb[0] == "point":
            return first if sa[1] < sb[1] else second
        if sa[0] == "point":
            return first if sa[1] < ub else second
        return second if sb[1] < ua else first
    if ua != ub:
        # support bound: an option whose losses reach higher has eventually larger moments
        return first if ua < ub else second
    if sa[0] == sb[0] and sa[0] in _FAMILIES:
        # same family, one parameter shifted: the smaller location or scale wins
        if sa[0] in ("gumbel", "gaussian") and sa[2] == sb[2] and sa[1] != sb[1]:
            return first if sa[1] < sb[1] else second
        if sa[0] in ("gamma", "weibull") and sa[1] == sb[1] and sa[2] != sb[2]:
            return first if sa[2] < sb[2] else second
    return None


def _oracle(spec):
    import oracles

    kind = spec[0]
    if kind == "gumbel":
        return oracles.logsf_gumbel_min(spec[1], spec[2])
    if kind == "gamma":
        return oracles.logsf_gamma(spec[1], spec[2])
    if kind == "weibull":
        return oracles.logsf_weibull(spec[1], spec[2])
    if kind == "gaussian":
        return oracles.logsf_gaussian(spec[1], spec[2])
    if kind == "piecewise":
        return oracles.logsf_piecewise(spec[1], spec[2])
    if kind == "truncated":
        return oracles.logsf_truncated(_oracle(spec[1]), spec[2], spec[3])
    return oracles.logsf_point(spec[1])


def _check(a, b, value, swapped):
    import checks

    verdict, threshold = value
    got = verdict.relation.value
    want = expected(a, b)
    if want is not None and (reason := checks.relation(got, want)):
        return reason
    if swapped[1] is None and (reason := checks.antisymmetric(got, swapped[0][0].relation.value)):
        return reason
    if verdict.preferred_index is None:
        return None
    if threshold is None:
        return "strict verdict without a certificate"
    last = threshold.grid[-1][0] if threshold.grid else threshold.x0
    return checks.certificate(
        threshold.x0,
        threshold.grid,
        verdict.preferred_index,
        _oracle(POOL[a]),
        _oracle(POOL[b]),
        extra=checks.beyond(last),
    )
