"""Self-tests of the benchmark's checks.

Every check must accept the right answer and reject a deliberately wrong
one: a flipped relation, an x0 moved below a crossover, a moment off by
1e-3 and a histogram with one count moved.  ``run.py`` runs these before
every measurement, so a passing run means the checks can fail.

    python perfbench/selftest.py
"""

import sys
from collections import Counter

import numpy as np

import checks
import oracles

FIRST, SECOND = "FirstStrictlyPreferred", "SecondStrictlyPreferred"
#: paper example 2: Gumbel(6.27294, 2.20532) vs Gumbel(6.19073, 2.06288);
#: the survival curves cross once, at x = 5.00
EX2 = ((6.27294, 2.20532), (6.19073, 2.06288))


def _ex2_certificate(x0):
    s1, s2 = (oracles.logsf_gumbel_min(*p) for p in EX2)
    xs = np.linspace(x0, 30.0, 512)
    grid = np.stack([xs, np.exp(s1(xs)), np.exp(s2(xs))], axis=1).tolist()
    return checks.certificate(x0, grid, 1, s1, s2, extra=checks.beyond(30.0))


def cases():
    """(name, result of the check on the right answer, on the wrong one)."""
    yield "relation", checks.relation(SECOND, SECOND), checks.relation(FIRST, SECOND)
    yield "antisymmetry", checks.antisymmetric(FIRST, SECOND), checks.antisymmetric(FIRST, FIRST)
    yield "certificate x0", _ex2_certificate(5.01), _ex2_certificate(4.0)

    want = oracles.gumbel_min_moments(31.0063, 1.74346, 5)
    off = list(want)
    off[2] *= 1 + 1e-3
    yield "moments", checks.moments(list(want), want, 1e-6), checks.moments(off, want, 1e-6)

    sizes = oracles.outbreak_sizes(20, oracles.complete_edges(20), 0.1, 1, 50)
    hist = Counter(sizes)
    keys = sorted(hist)
    moved = Counter(hist)
    moved[keys[0]] -= 1
    moved[keys[-1]] += 1
    yield ("histogram",
           checks.histogram(list(hist), list(hist.values()), 20, 50, sizes),
           checks.histogram(list(moved), list(moved.values()), 20, 50, sizes))


def run():
    """Problems found; empty when every check behaves."""
    problems = []
    for name, right, wrong in cases():
        if right is not None:
            problems.append(f"{name}: rejects the right answer ({right})")
        if wrong is None:
            problems.append(f"{name}: accepts a wrong answer")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("self-tests:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
