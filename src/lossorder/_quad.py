"""Log-domain quadrature for the moments without an exact form: Gumbel, truncations.

Moments E[X^k] overflow ordinary floating point long before k reaches the
prefix lengths used by the ordering engine, so every integral here is carried
as log of a sum of positive terms.  Composite Gauss-Legendre panels are
refined by doubling until the log-integral stabilises, with a hard cap on the
number of panels.  The bisection that inverts survival functions and
refines tail thresholds lives here too.
"""

import numpy as np
from scipy.special import logsumexp

from .errors import MomentsUndefined

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


def signed_log_moment(logf, lo, hi, k):
    """log E[X^k] on a window that may dip below zero.

    The positive and negative parts are integrated separately in log-domain
    and recombined with the sign of x^k.  Raises MomentsUndefined when the
    signed sum is not positive (the log-domain contract cannot hold then).
    """
    pos = -np.inf
    neg = -np.inf
    if hi > 0:
        a = max(lo, 1e-300)
        edges = np.linspace(a, hi, 65)
        pos = float(log_power_integral(logf, edges, [k])[0])
    if lo < 0:
        b = min(hi, -1e-300)
        edges = np.linspace(-b, -lo, 65)
        neg = float(log_power_integral(lambda t: logf(-t), edges, [k])[0])
    if neg == -np.inf:
        result = pos
    elif k % 2 == 0:
        result = np.logaddexp(pos, neg)
    elif pos > neg:
        result = pos + np.log1p(-np.exp(neg - pos))
    else:
        raise MomentsUndefined(
            f"moment of order {k} is not positive on this support"
        )
    if not np.isfinite(result):
        raise MomentsUndefined(f"moment of order {k} could not be computed")
    return result


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


def bisect(pred, lo, hi, steps):
    """Halve [lo, hi] ``steps`` times, keeping ``pred`` true at lo and false
    at hi; returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
