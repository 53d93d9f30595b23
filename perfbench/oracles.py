"""Independent reference computations for the benchmark's checks.

Nothing here imports ``lossorder``: survival functions, moments, bandwidths
and outbreak sizes are computed from the parameters the benchmark itself
generated, with closed forms, ``scipy.special``, ``mpmath`` or exact
rational arithmetic.

Every ``logsf_*`` factory returns a vectorised callable x -> log Pr(X > x),
accurate far into the tails where the linear-scale survival underflows.
"""

import math
import statistics
from collections import deque
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaincc, log_ndtr, logsumexp

mpmath.mp.dps = 40


def _arr(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def logsf_gumbel_min(a, b):
    """Minimum-extreme-value Gumbel: S(x) = exp(-exp((x - a) / b))."""

    def f(x):
        with np.errstate(over="ignore"):
            return -np.exp((_arr(x) - a) / b)

    return f


def logsf_gaussian(mu, sigma):
    def f(x):
        return log_ndtr((mu - _arr(x)) / sigma)

    return f


def logsf_weibull(shape, scale):
    def f(x):
        x = _arr(x)
        with np.errstate(over="ignore"):
            return np.where(x > 0, -np.power(np.maximum(x, 0.0) / scale, shape), 0.0)

    return f


def logsf_gamma(shape, scale):
    """log of the regularised upper incomplete gamma, with an mpmath
    fallback where ``gammaincc`` underflows."""

    def f(x):
        z = np.maximum(_arr(x), 0.0) / scale
        q = gammaincc(shape, z)
        with np.errstate(divide="ignore"):
            out = np.log(q)
        for i in np.nonzero(q < 1e-280)[0]:
            tail = mpmath.gammainc(shape, mpmath.mpf(float(z[i])), mpmath.inf, regularized=True)
            out[i] = float(mpmath.log(tail)) if tail > 0 else -np.inf
        return out

    return f


def _log_diff(la, lb):
    """log(exp(la) - exp(lb)) for la >= lb."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(la > lb, la + np.log1p(-np.exp(lb - la)), -np.inf)


def logsf_truncated(base_logsf, lo, hi):
    """Base distribution conditioned on [lo, hi]."""
    l_lo = float(base_logsf(lo)[0])
    l_hi = float(base_logsf(hi)[0])
    log_mass = float(_log_diff(np.float64(l_lo), np.float64(l_hi)))

    def f(x):
        x = _arr(x)
        inner = _log_diff(base_logsf(np.clip(x, lo, hi)), l_hi) - log_mass
        return np.where(x <= lo, 0.0, np.where(x >= hi, -np.inf, inner))

    return f


def logsf_piecewise(breaks, coeffs):
    """Piecewise-polynomial density; ``coeffs[i]`` are ascending-power
    coefficients in the global x on [breaks[i], breaks[i+1]].  Each
    segment's upper mass is integrated in t = right - x, which keeps the
    survival accurate next to the right endpoint."""
    P = np.polynomial.Polynomial
    tails = []
    for (lo, hi), c in zip(zip(breaks[:-1], breaks[1:]), coeffs):
        q = P(c)(P([hi, -1.0])).integ()  # ∫_0^t p(hi - s) ds
        tails.append((lo, hi, q, float(q(hi - lo))))

    def f(x):
        x = _arr(x)
        total = np.zeros_like(x)
        for lo, hi, q, mass in tails:
            part = q(np.clip(hi - x, 0.0, hi - lo))
            total += np.where(x <= lo, mass, np.where(x >= hi, 0.0, part))
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(total, 0.0))

    return f


def logsf_point(value):
    def f(x):
        return np.where(_arr(x) < value, 0.0, -np.inf)

    return f


def logsf_discrete(values, weights):
    """Finite distribution on ascending ``values`` with non-negative integer
    or rational ``weights``; tail sums are exact before the log."""
    weights = [Fraction(w) for w in weights]
    total = sum(weights)
    tail = [Fraction(0)] * (len(values) + 1)
    for j in range(len(values) - 1, -1, -1):
        tail[j] = tail[j + 1] + weights[j] / total
    with np.errstate(divide="ignore"):
        log_tail = np.log(np.array([float(t) for t in tail]))
    vals = np.asarray(values, dtype=float)

    def f(x):
        return log_tail[np.searchsorted(vals, _arr(x), side="right")]

    return f


def logsf_mixture(centres, h, chunk=256):
    """Equal-weight Gaussian mixture (a Gaussian KDE) with bandwidth h."""
    c = np.asarray(centres, dtype=float)
    log_n = math.log(len(c))

    def f(x):
        x = _arr(x)
        out = np.empty_like(x)
        for s in range(0, len(x), chunk):
            z = (c[None, :] - x[s:s + chunk, None]) / h
            out[s:s + chunk] = logsumexp(log_ndtr(z), axis=1) - log_n
        return out

    return f


def gumbel_min_moments(a, b, n):
    """Raw moments E[X^k], k = 1..n, of a minimum-Gumbel(a, b), from its
    cumulants: k1 = a - b*gamma, kn = b^n (-1)^n (n-1)! zeta(n)."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    kappa = [None, a - b * mpmath.euler]
    kappa += [b**j * (-1) ** j * mpmath.factorial(j - 1) * mpmath.zeta(j) for j in range(2, n + 1)]
    m = [mpmath.mpf(1)]
    for r in range(1, n + 1):
        m.append(sum(mpmath.binomial(r - 1, k - 1) * kappa[k] * m[r - k] for k in range(1, r + 1)))
    return [float(v) for v in m[1:]]


def gamma_moments(shape, scale, n):
    """E[X^k] = scale^k * shape (shape+1) ... (shape+k-1)."""
    out, acc = [], mpmath.mpf(1)
    for k in range(1, n + 1):
        acc *= (mpmath.mpf(shape) + k - 1) * mpmath.mpf(scale)
        out.append(float(acc))
    return out


def weibull_moments(shape, scale, n):
    """E[X^k] = scale^k * Gamma(1 + k / shape)."""
    s, b = mpmath.mpf(shape), mpmath.mpf(scale)
    return [float(b**k * mpmath.gamma(1 + k / s)) for k in range(1, n + 1)]


def mixture_moment(centres, h, k):
    """Exact k-th moment of an equal-weight Gaussian mixture:
    (1/n) sum_i sum_{j even} C(k, j) x_i^(k-j) h^j (j-1)!!, in rationals."""
    h = Fraction(h)
    total = Fraction(0)
    for x in centres:
        x = Fraction(x)
        for j in range(0, k + 1, 2):
            total += math.comb(k, j) * x ** (k - j) * h**j * _double_factorial(j - 1)
    return total / len(centres)


def _double_factorial(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def nrd0(samples):
    """Silverman's rule of thumb, 0.9 min(sd, IQR/1.34) n^(-1/5), with
    type-7 quartiles."""
    n = len(samples)
    sd = statistics.stdev(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return 0.9 * min(sd, (q3 - q1) / 1.34) * n ** -0.2


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def erdos_renyi_edges(n, q, seed):
    """G(n, q): the documented draw, one uniform per node pair in
    lexicographic order from ``default_rng(seed)``."""
    pairs = complete_edges(n)
    keep = np.random.default_rng(seed).random(len(pairs)) < q
    return [e for e, k in zip(pairs, keep) if k]


def outbreak_sizes(n_nodes, edges, p, seed, runs):
    """Outbreak size of every run by breadth-first search.  Run r draws one
    uniform per edge, then the initial node, from ``default_rng([seed, r])``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sizes = []
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        kept = edges[rng.random(len(edges)) < p]
        start = int(rng.integers(n_nodes))
        adj = {}
        for u, v in kept.tolist():
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {start}
        queue = deque([start])
        while queue:
            for w in adj.get(queue.popleft(), ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sizes.append(len(seen))
    return sizes
