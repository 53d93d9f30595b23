"""Gaussian kernel density estimation with closed-form derivatives.

Bandwidths follow Silverman's rule-of-thumb (the ``nrd0`` default of common
statistics packages): h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), with quartiles
computed by linear interpolation (type-7).  The estimate is a Gaussian
mixture: its moments are exact sums over the samples, linear in their number,
and derivatives of any order come in closed form through probabilists'
Hermite polynomials.  Density and survival evaluation sums the kernels over
fixed-size blocks of points, so its memory is linear in the sample count
whatever the number of points.  Two estimates are ordered by their tail
keys, like any unbounded tails; ``effective_upper_bound()`` is reported but
decides nothing.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr

# not called here; perfbench/tracer.py counts expand_bound in this module
from ._quad import bisect, expand_bound  # noqa: F401
from .distributions import (
    _SQRT_2PI,
    LossDistribution,
    SupportInterval,
    gaussian_mixture_derivative,
    gaussian_mixture_log_moments,
    gaussian_tail_key,
    hermite_he,
    norm_pdf,
)
from .errors import EmptyData
from .ordering import compare_kdes

__all__ = ["KernelDensityEstimate", "fit", "hermite_he", "compare_kdes"]

#: kernel terms held at once by density and survival evaluation
_BLOCK_TERMS = 2**16


@dataclass(frozen=True)
class KernelDensityEstimate(LossDistribution):
    """Gaussian-kernel density estimate over a fixed sample set."""

    samples: tuple
    bandwidth: float

    from_samples = True

    def __post_init__(self):
        samples = tuple(float(s) for s in self.samples)
        object.__setattr__(self, "samples", samples)
        if len(samples) < 1:
            raise EmptyData("KDE needs at least one sample")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @cached_property
    def _x(self):
        return np.asarray(self.samples)

    @property
    def n(self):
        return len(self.samples)

    @property
    def support(self):
        return SupportInterval(-np.inf, np.inf)

    def _rows(self, x, reduce):
        """``reduce`` applied to the standardised kernel arguments of each x.

        Rows are taken in blocks of about ``_BLOCK_TERMS`` kernel terms, so
        memory stays linear in the sample count whatever the length of x;
        each row is reduced on its own, so the blocking leaves values as they
        would be from one matrix.
        """
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.empty(flat.shape)
        step = max(1, _BLOCK_TERMS // self.n)
        for i in range(0, len(flat), step):
            u = (flat[i : i + step, None] - self._x[None, :]) / self.bandwidth
            out[i : i + step] = reduce(u)
        return out.reshape(x.shape)[()]

    def pdf(self, x):
        return self._rows(x, lambda u: norm_pdf(u).mean(axis=1) / self.bandwidth)

    def logpdf(self, x):
        log_norm = np.log(self.n * self.bandwidth * _SQRT_2PI)
        return self._rows(x, lambda u: logsumexp(-0.5 * u * u, axis=1) - log_norm)

    def cdf(self, x):
        return self._rows(x, lambda u: ndtr(u).mean(axis=1))

    def sf(self, x):
        return self._rows(x, lambda u: ndtr(-u).mean(axis=1))

    def logsf(self, x):
        log_n = np.log(self.n)
        return self._rows(x, lambda u: logsumexp(log_ndtr(-u), axis=1) - log_n)

    def tail_key(self):
        """The largest centre's Gaussian tail, carrying the m of n kernels
        tied at that maximum: -log sf gains log(n / m)."""
        top = np.max(self._x)
        tied = np.count_nonzero(self._x == top)
        return gaussian_tail_key(float(top), self.bandwidth).plus(np.log(self.n / tied))

    def isf(self, q):
        """Inverse survival function by bisection (monotone smooth CDF)."""
        lo = min(self.samples) - 40 * self.bandwidth
        hi = max(self.samples) + 40 * self.bandwidth
        lo, hi = bisect(lambda x: self.sf(x) > q, lo, hi, 200)
        return 0.5 * (lo + hi)

    def derivative(self, x, k):
        """k-th derivative of the density at x, in closed form."""
        return gaussian_mixture_derivative(self._x, self.bandwidth, x, k)

    def log_moments(self, ks):
        """Exact log E[X^k] of the kernel mixture."""
        return gaussian_mixture_log_moments(self._x, self.bandwidth, ks)

    def effective_upper_bound(self):
        """Right-end proxy of the estimate: max sample plus one bandwidth."""
        return max(self.samples) + self.bandwidth

    def shifted(self, offset):
        """Same estimate translated along the loss axis (bandwidth is kept;
        Silverman's rule is shift-invariant)."""
        return KernelDensityEstimate(
            tuple(s + offset for s in self.samples), self.bandwidth
        )


def silverman_bandwidth(samples):
    """Silverman's nrd0 bandwidth with the documented degenerate fallbacks."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    sd = x.std(ddof=1) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        h = 0.9 * abs(x.mean()) * n ** (-0.2)
    if h <= 0:
        h = 1.0
    return float(h)


def fit(samples):
    """Fit a Gaussian KDE with Silverman's rule bandwidth."""
    samples = tuple(float(s) for s in samples)
    if not samples:
        raise EmptyData("cannot fit a KDE to an empty sample list")
    return KernelDensityEstimate(samples, silverman_bandwidth(samples))

