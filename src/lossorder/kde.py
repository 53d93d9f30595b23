"""Gaussian kernel density estimation with closed-form derivatives.

Bandwidths follow Silverman's rule-of-thumb (the ``nrd0`` default of common
statistics packages): h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), with quartiles
computed by linear interpolation (type-7).  Derivatives of any order come in
closed form through probabilists' Hermite polynomials, which is what makes
the derivative-lexicographic comparison of two estimates practical.  That
comparison, ``compare_kdes``, is a rule of ``ordering`` and is re-exported
here.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp, ndtr

from ._quad import bisect, expand_bound, signed_log_moment
from .distributions import (
    _SQRT_2PI,
    LossDistribution,
    SupportInterval,
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
        if k == 0:
            return float(self.pdf(x))
        u = (float(x) - self._x) / self.bandwidth
        terms = hermite_he(u, k) * norm_pdf(u)
        sign = -1.0 if k % 2 else 1.0
        return float(sign * terms.sum() / (self.n * self.bandwidth ** (k + 1)))

    def effective_upper_bound(self, multiplier=1.0):
        """Right-end proxy of the estimate: max sample plus one bandwidth."""
        return max(self.samples) + multiplier * self.bandwidth

    def shifted(self, offset):
        """Same estimate translated along the loss axis (bandwidth is kept;
        Silverman's rule is shift-invariant)."""
        return KernelDensityEstimate(
            tuple(s + offset for s in self.samples), self.bandwidth
        )

    def _log_moment(self, k):
        lo = min(self.samples) - 10 * self.bandwidth
        hi = max(self.samples) + 10 * self.bandwidth

        def logw(x):
            return k * np.log(max(abs(x), 1e-300)) + float(self.logpdf(x))

        hi = expand_bound(logw, hi, self.bandwidth, +1)
        if lo < 0:
            lo = expand_bound(logw, lo, self.bandwidth, -1)
        return signed_log_moment(self.logpdf, lo, hi, k, n_panels=max(64, 2 * self.n))


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

