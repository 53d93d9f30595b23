"""Checks of the program's outputs.

Each check returns ``None`` when the output is right and a one-line reason
when it is wrong.  The expected values come from ``oracles`` or from
properties the order must have; ``selftest`` feeds every check a
deliberately wrong answer.
"""

from collections import Counter

import numpy as np

#: survival dominance slack as a difference of log-survivals: the program's
#: own relative tolerance (1e-6) plus rounding, with no absolute floor
LOG_SLACK = 2e-6
#: printed survival values must match the oracle to this absolute error
SURVIVAL_ABS = 1e-9


def relation(got, expected):
    """``got``/``expected`` are relation names such as 'FirstStrictlyPreferred'."""
    if got != expected:
        return f"relation {got}, expected {expected}"
    return None


def antisymmetric(forward, backward):
    swap = {
        "FirstStrictlyPreferred": "SecondStrictlyPreferred",
        "SecondStrictlyPreferred": "FirstStrictlyPreferred",
    }
    if swap.get(forward, forward) != backward:
        return f"swap gives {backward} where {forward} flips to {swap.get(forward, forward)}"
    return None


def moments(got, want, rel):
    for k, (g, w) in enumerate(zip(got, want), start=1):
        if not abs(g - w) <= rel * abs(w):
            return f"moment {k} is {g!r}, expected {w!r} within {rel:g}"
    if len(got) != len(want):
        return f"{len(got)} moments reported, expected {len(want)}"
    return None


def beyond(last, factor=100.0, points=128):
    """Evaluation points from just past ``last`` out to ``factor * last``."""
    return last * np.geomspace(1.0 + 1e-9, factor, points)


def certificate(x0, grid, preferred, logsf1, logsf2, extra=()):
    """Re-verify a tail certificate.

    ``grid`` rows are (x, S1(x), S2(x)) as printed; ``preferred`` is 0 or 1.
    Every row must lie at or above ``x0``, the printed survivals must match
    the oracles, and the preferred survival may not exceed the other's, in
    log-domain, on the rows and at the ``extra`` points.
    """
    rows = np.asarray(grid, dtype=float).reshape(-1, 3)
    if len(rows) == 0:
        return "empty certificate grid"
    xs = rows[:, 0]
    if np.any(xs < x0 - 1e-12 * max(1.0, abs(x0))):
        return f"certificate row at x={xs.min():.6g} lies below x0={x0:.6g}"
    l1, l2 = logsf1(xs), logsf2(xs)
    truth = np.exp(np.stack([l1, l2], axis=1))
    off = np.abs(rows[:, 1:] - truth) > SURVIVAL_ABS + 1e-6 * truth
    if off.any():
        i = int(np.nonzero(off.any(axis=1))[0][0])
        return f"printed survival at x={xs[i]:.6g} is {rows[i, 1:]}, oracle {truth[i]}"
    extra = np.asarray(extra, dtype=float)
    for where, pts, a, b in (("on the grid", xs, l1, l2), ("beyond the grid", extra, logsf1(extra), logsf2(extra))):
        lp, lo = (a, b) if preferred == 0 else (b, a)
        bad = lp > lo + LOG_SLACK
        if bad.any():
            return f"survival dominance fails {where} at x={pts[np.argmax(bad)]:.6g}"
    return None


def histogram(sizes, counts, n_nodes, runs, oracle_sizes):
    """Outbreak histogram against its breadth-first recomputation."""
    if sum(counts) != runs:
        return f"counts sum to {sum(counts)}, expected {runs}"
    if any(not 1 <= s <= n_nodes for s, c in zip(sizes, counts) if c):
        return f"an outbreak size lies outside [1, {n_nodes}]"
    got = Counter({int(s): int(c) for s, c in zip(sizes, counts) if c})
    want = Counter(oracle_sizes)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return f"histogram differs from the recomputation at {diff[:4]}"
    return None
