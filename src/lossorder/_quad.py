"""Log-domain quadrature for the moments without an exact form.

Moments E[X^k] overflow ordinary floating point long before k reaches the
prefix lengths used by the ordering engine, so every integral here is carried
as log of a sum of positive terms, for all orders on one set of nodes.
Composite Gauss-Legendre panels are refined by doubling until the
log-integral stabilises, with a hard cap on the number of panels.
``expand_bound`` sizes a window open at one end; splitting a window at 0 and
recombining the signed sides is left to the caller
(``distributions._integrated_log_moments``).  The bisection that inverts
survival functions and refines tail thresholds lives here too.
"""

import numpy as np
from scipy.special import logsumexp

_GL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

#: convergence target (absolute, in log-domain, i.e. relative on the moment)
_LOG_TOL = 1e-11
_MAX_PANELS = 4096


def _panel_points(edges):
    """Map the reference Gauss-Legendre rule onto every panel."""
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    logw = (np.log(half[:, None]) + np.log(_GL_WEIGHTS)[None, :]).ravel()
    return x, logw


def log_power_integral(logf, edges, ks):
    """log of ``∫ x^k exp(logf(x)) dx`` for each k, over panels in (0, inf).

    ``edges`` is an ascending array of panel boundaries (all > 0); interior
    breakpoints of piecewise densities should appear in it so the integrand is
    smooth within each panel.  Returns an array aligned with ``ks``.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    edges = np.asarray(edges, dtype=float)
    prev = None
    while True:
        x, logw = _panel_points(edges)
        g = logf(x) + logw
        mat = ks[:, None] * np.log(x)[None, :] + g[None, :]
        vals = logsumexp(mat, axis=1)
        if prev is not None:
            finite = np.isfinite(vals) & np.isfinite(prev)
            if not finite.any():
                return vals
            if np.max(np.abs(vals[finite] - prev[finite]), initial=0.0) < _LOG_TOL:
                return vals
        if len(edges) - 1 >= _MAX_PANELS:
            return vals
        prev = vals
        refined = np.empty(2 * len(edges) - 1)
        refined[0::2] = edges
        refined[1::2] = 0.5 * (edges[:-1] + edges[1:])
        edges = refined


def expand_bound(logweight, start, step, direction):
    """Push a bound outward until ``logweight`` has dropped far below its peak.

    ``direction`` is +1 (upper bound) or -1 (lower bound).  Used to size the
    integration window of x^k-weighted integrands on unbounded supports.
    """
    x = float(start)
    with np.errstate(over="ignore"):
        peak = logweight(x)
    step = float(step)
    for _ in range(200):
        cand = x + direction * step
        with np.errstate(over="ignore"):
            val = logweight(cand)
        peak = max(peak, val)
        x = cand
        if val < peak - 120.0:
            return x
        step *= 1.4
    return x


def bisect(pred, lo, hi, steps, points=1):
    """Cut [lo, hi] ``steps`` times, keeping ``pred`` true at lo and false
    at hi; returns the final (lo, hi).

    Each cut asks ``pred`` once: of the midpoint 0.5 (lo + hi) when
    ``points`` is 1, else of the array of the interior points
    lo + j (hi - lo) / (points + 1), j = 1..points, answered by an array of
    booleans.  The new bracket runs from the last point where ``pred`` holds
    (or lo) to the next point (or hi), so the two ends keep their answers
    even when ``pred`` is not monotone.  Once no point lies strictly inside,
    the interval cannot shrink further and every later cut would repeat
    this one, so the loop stops there, with lo and hi equal or adjacent.
    """
    if points == 1:
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            collapsed = mid == lo or mid == hi
            if pred(mid):
                lo = mid
            else:
                hi = mid
            if collapsed:
                break
        return lo, hi
    # offsets from lo: a weighted mean of the ends can round onto them
    # while floats still lie between
    fractions = np.arange(1, points + 1) / (points + 1)
    for _ in range(steps):
        xs = lo + (hi - lo) * fractions
        collapsed = not np.any((xs > lo) & (xs < hi))
        holds = np.flatnonzero(np.broadcast_to(pred(xs), xs.shape))
        if holds.size:
            last = holds[-1]
            lo, hi = float(xs[last]), float(xs[last + 1]) if last + 1 < points else hi
        else:
            hi = float(xs[0])
        if collapsed:
            break
    return lo, hi
