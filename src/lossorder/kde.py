"""Gaussian kernel density estimation with closed-form derivatives.

Bandwidths follow Silverman's rule-of-thumb (the ``nrd0`` default of common
statistics packages): h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), with quartiles
computed by linear interpolation (type-7).  The estimate is a Gaussian
mixture: its moments are exact sums over the samples, linear in their number,
and derivatives of any order come in closed form through probabilists'
Hermite polynomials, which makes the derivative-lexicographic comparison of
two estimates, ``compare_kdes`` (a rule of ``ordering``), practical.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp, ndtr

# not called here; perfbench/tracer.py counts expand_bound in this module
from ._quad import bisect, expand_bound  # noqa: F401
from .distributions import (
    _SQRT_2PI,
    LossDistribution,
    SupportInterval,
    gaussian_mixture_derivative,
    gaussian_mixture_log_moments,
    hermite_he,
    norm_pdf,
)
from .errors import EmptyData
from .ordering import compare_kdes

__all__ = ["KernelDensityEstimate", "fit", "hermite_he", "compare_kdes"]


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

    def _u(self, x):
        x = np.asarray(x, dtype=float)
        return (np.atleast_1d(x)[:, None] - self._x[None, :]) / self.bandwidth

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = norm_pdf(self._u(x)).mean(axis=1) / self.bandwidth
        return out.reshape(x.shape)[()]

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        u = self._u(x)
        out = logsumexp(-0.5 * u * u, axis=1) - np.log(
            self.n * self.bandwidth * _SQRT_2PI
        )
        return out.reshape(x.shape)[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = ndtr(self._u(x)).mean(axis=1)
        return out.reshape(x.shape)[()]

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = ndtr(-self._u(x)).mean(axis=1)
        return out.reshape(x.shape)[()]

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

    def effective_upper_bound(self, multiplier=1.0):
        """Right-end proxy of the estimate: max sample plus one bandwidth."""
        return max(self.samples) + multiplier * self.bandwidth

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

