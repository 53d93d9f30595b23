"""Loss-distribution representations.

Every admissible representation of a loss distribution lives here: finite
categorical/histogram data, piecewise-polynomial densities on compact
support, the smooth parametric families used by the comparison examples
(Gumbel, Gamma, Weibull, Gaussian), truncations, point masses, and discrete
lattice distributions with unbounded support.  All objects are immutable.

A representation subclasses ``LossDistribution`` and implements ``support``,
``pdf`` (raising ``NoDensity`` if it has none), ``cdf`` (``sf`` defaults to
1 - cdf) and the moments log E[X^k], as ``_log_moment(k)`` or as
``log_moments(ks)`` for several orders at once (each defaults to the other).
Where it knows better than the generic forms, it overrides:

- ``derivative(x, k)``: the k-th density derivative (default: ``pdf`` at
  k = 0, ``DerivativeUnavailable`` above);
- ``isf(q)``: the inverse survival function (default: bisection on ``sf``);
- ``logsf(x)``: log Pr(X > x) (default: the log of ``sf``, which underflows
  where the tail is far out);
- ``tail_key()``: the leading terms of -log sf(x) as x -> inf, a
  ``TailKey`` (default: None, no closed form).

The finite pmfs (categorical, histogram, point mass) give
``descending_pmf()``, the lattice ``truncated(a, b)``.

Three class flags describe it to the comparison rules: ``has_density``,
``is_discrete`` and ``from_samples`` (a kernel estimate over raw samples).

The Gumbel family follows the minimum-extreme-value parametrisation
f(x|a,b) = (1/b) exp((x-a)/b - exp((x-a)/b)), i.e. scipy's ``gumbel_l``.
Every family is evaluated from closed forms in ``scipy.special``; the
Gaussian is a one-component case of the kernel estimate's Gaussian mixture.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import (
    expm1,
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    log1p,
    log_ndtr,
    logsumexp,
    ndtr,
    ndtri,
    xlogy,
)

from ._quad import bisect, expand_bound, log_power_integral, signed_log_moment
from .errors import (
    DerivativeUnavailable,
    EmptyTruncation,
    InvalidOrder,
    MomentsUndefined,
    NoDensity,
)

__all__ = [
    "SupportInterval",
    "TailKey",
    "LossDistribution",
    "CategoricalDistribution",
    "HistogramDistribution",
    "PiecewisePolyDensity",
    "ParametricDistribution",
    "TruncatedDistribution",
    "PointMass",
    "LatticeDistribution",
    "Gumbel",
    "Gamma",
    "Weibull",
    "Gaussian",
    "truncate",
]


@dataclass(frozen=True)
class SupportInterval:
    """Closed support interval; ``upper`` may be +inf, ``lower`` may be -inf."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"empty support [{self.lower}, {self.upper}]")

    @property
    def is_compact(self):
        return np.isfinite(self.lower) and np.isfinite(self.upper)

    def intersect(self, other):
        return SupportInterval(
            max(self.lower, other.lower), min(self.upper, other.upper)
        )


#: the default ``isf`` searches no further out than this
ISF_CAP = 1e12


class TailKey(NamedTuple):
    """Leading terms of -log sf(x) as x -> inf:

        exp(log_coef + rate x) + coef x^power + x_coef x + log_x log x + const

    Keys compare lexicographically as tuples, and the larger key is the
    lighter tail: its survival function is eventually the smaller one.  The
    leading power term sits in ``power``/``coef`` (power 1 for an
    exponential tail), so ``x_coef`` holds only a lower-order linear term.
    """

    rate: float = 0.0
    log_coef: float = -np.inf
    power: float = 0.0
    coef: float = 0.0
    x_coef: float = 0.0
    log_x: float = 0.0
    const: float = 0.0

    def plus(self, const):
        """The key of the survival function times exp(-const)."""
        return self._replace(const=self.const + float(const))


def _check_order(k):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidOrder(f"moment order must be a positive integer, got {k!r}")


class LossDistribution:
    """Common interface of all distribution representations."""

    #: whether pdf() is meaningful
    has_density = True
    #: whether the distribution is supported on a finite/countable set
    is_discrete = False
    #: whether it is a kernel estimate over raw samples
    from_samples = False

    @property
    def support(self) -> SupportInterval:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def logpdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function Pr(X > x)."""
        return 1.0 - self.cdf(x)

    def logsf(self, x):
        """log Pr(X > x)."""
        with np.errstate(divide="ignore"):
            return np.log(self.sf(x))

    def tail_key(self):
        """Leading terms of -log sf(x) as x -> inf, or None if unknown."""
        return None

    def log_moment(self, k):
        """log E[X^k] for integer k >= 1."""
        _check_order(k)
        return self._log_moment(int(k))

    def _log_moment(self, k):
        """log E[X^k] for one checked order; override this or ``log_moments``."""
        return float(self.log_moments([k])[0])

    def log_moments(self, ks):
        """log E[X^k] for each order in ``ks``, as an array."""
        return np.array([self.log_moment(int(k)) for k in ks])

    def derivative(self, x, k):
        """k-th derivative of the density at x."""
        if k == 0:
            return float(self.pdf(x))
        raise DerivativeUnavailable(f"no derivative rule for {type(self).__name__}")

    def isf(self, q):
        """Inverse survival function, by bisection on ``sf`` over the support
        (from [1, 2], doubled up to ``ISF_CAP``, when the support is unbounded)."""
        lo, hi = self.support.lower, self.support.upper
        if not np.isfinite(hi):
            lo, hi = 1.0, 2.0
            while self.sf(hi) > q and hi < ISF_CAP:
                lo, hi = hi, hi * 2
        lo, hi = bisect(lambda x: self.sf(x) > q, lo, hi, 200)
        return 0.5 * (lo + hi)


class _FinitePmf(LossDistribution):
    """Finite pmf: ``descending_pmf()`` gives its atoms as (values, probs)
    arrays in strictly descending severity order, and its moments are one
    log-sum over them."""

    has_density = False
    is_discrete = True

    def log_moments(self, ks):
        values, probs = self.descending_pmf()
        mask = probs > 0
        if (values[mask] <= 0).any():
            raise MomentsUndefined("log-domain moments need strictly positive outcomes")
        logs = np.log(probs[mask])
        logv = np.log(values[mask])
        return logsumexp(logs[None, :] + np.asarray(ks)[:, None] * logv[None, :], axis=1)


@dataclass(frozen=True)
class CategoricalDistribution(_FinitePmf):
    """Finite categorical distribution over severity-ranked labels.

    ``labels`` and ``ranks`` are listed in strictly descending severity order
    (worst category first), matching the order in which the lexicographic
    comparison scans the probability vector.
    """

    labels: tuple
    ranks: tuple
    probs: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        ranks = tuple(float(r) for r in self.ranks)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "probs", probs)
        if not (len(labels) == len(ranks) == len(probs)):
            raise ValueError("labels, ranks and probs must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate category labels")
        if any(a <= b for a, b in zip(ranks, ranks[1:])):
            raise ValueError("ranks must be strictly descending")
        if min(probs) < 0:
            raise ValueError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")

    @property
    def support(self):
        return SupportInterval(self.ranks[-1], self.ranks[0])

    def pdf(self, x):
        raise NoDensity("categorical distribution has no density")

    def pmf(self, label):
        return self.probs[self.labels.index(label)]

    def descending_pmf(self):
        return np.asarray(self.ranks), np.asarray(self.probs)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        ranks = np.asarray(self.ranks)
        probs = np.asarray(self.probs)
        return np.where(
            ranks[None, ...] <= np.atleast_1d(x)[..., None], probs, 0.0
        ).sum(axis=-1).reshape(x.shape)[()]


@dataclass(frozen=True)
class HistogramDistribution(_FinitePmf):
    """Empirical distribution given by per-bin counts on ascending loss values."""

    bin_values: tuple
    counts: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.bin_values)
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "bin_values", values)
        object.__setattr__(self, "counts", counts)
        if len(values) != len(counts):
            raise ValueError("bin_values and counts must have equal length")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("bin_values must be strictly ascending")
        if min(counts, default=0) < 0:
            raise ValueError("negative count")
        if sum(counts) <= 0:
            raise ValueError("histogram total must be positive")

    @property
    def total(self):
        return sum(self.counts)

    @cached_property
    def probs(self):
        counts = np.asarray(self.counts, dtype=float)
        return tuple(counts / counts.sum())

    @property
    def support(self):
        return SupportInterval(self.bin_values[0], self.bin_values[-1])

    def descending_pmf(self):
        return np.asarray(self.bin_values)[::-1], np.asarray(self.probs)[::-1]

    def pdf(self, x):
        raise NoDensity("histogram distribution has no density")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        values = np.asarray(self.bin_values)
        probs = np.asarray(self.probs)
        idx = np.searchsorted(values, np.atleast_1d(x), side="right")
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        return cum[idx].reshape(x.shape)[()]


class PiecewisePolyDensity(LossDistribution):
    """Continuous density that is polynomial on each segment of a partition.

    ``coefficients[i]`` holds ascending-power coefficients of the density on
    ``[breakpoints[i], breakpoints[i+1]]``, in the global x coordinate.
    """

    _GRID = 1024

    def __init__(self, breakpoints, coefficients):
        breakpoints = np.asarray(breakpoints, dtype=float)
        if breakpoints.ndim != 1 or len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if len(coefficients) != len(breakpoints) - 1:
            raise ValueError("one coefficient list per segment required")
        self._breaks = breakpoints
        self._polys = [np.polynomial.Polynomial(c) for c in coefficients]
        self._antiderivs = [p.integ() for p in self._polys]
        cum = np.concatenate(
            [[0.0], np.cumsum([
                ad(b) - ad(a)
                for ad, a, b in zip(self._antiderivs, breakpoints[:-1], breakpoints[1:])
            ])]
        )
        self._cum = cum
        grid = np.linspace(breakpoints[0], breakpoints[-1], self._GRID)
        if np.min(self.pdf(grid)) < -1e-9:
            raise ValueError("density is negative on the support")
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValueError(f"density integrates to {cum[-1]!r}, not 1")

    @classmethod
    def uniform(cls, lo, hi):
        return cls([lo, hi], [[1.0 / (hi - lo)]])

    @property
    def breakpoints(self):
        return self._breaks.copy()

    @property
    def support(self):
        return SupportInterval(self._breaks[0], self._breaks[-1])

    def _segment_index(self, x):
        idx = np.searchsorted(self._breaks, x, side="right") - 1
        return np.clip(idx, 0, len(self._polys) - 1)

    def _by_segment(self, flat, segment_fn):
        """``segment_fn(i, v)`` on the points ``v`` of ``flat`` that fall in
        segment i, for every segment at once."""
        idx = self._segment_index(flat)
        out = np.empty(flat.shape)
        for i in np.unique(idx):
            mask = idx == i
            out[mask] = segment_fn(i, flat[mask])
        return out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x)
        inside = (flat >= self._breaks[0]) & (flat <= self._breaks[-1])
        out = np.zeros(flat.shape)
        # the polynomials see only the support: at +-inf they give inf * 0
        out[inside] = np.maximum(
            self._by_segment(flat[inside], lambda i, v: self._polys[i](v)), 0.0
        )
        return out.reshape(x.shape)[()]

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        flat = np.clip(np.atleast_1d(x), self._breaks[0], self._breaks[-1])
        out = self._by_segment(
            flat,
            lambda i, v: self._cum[i] + self._antiderivs[i](v)
            - self._antiderivs[i](self._breaks[i]),
        )
        return np.clip(out, 0.0, 1.0).reshape(x.shape)[()]

    def derivative(self, x, k):
        """k-th one-sided derivative of the density at x (right endpoint uses
        the final segment's polynomial)."""
        idx = int(self._segment_index(np.asarray([x]))[0])
        return float(self._polys[idx].deriv(k)(x)) if k <= self._polys[idx].degree() else 0.0

    def _log_moment(self, k):
        lo, hi = self._breaks[0], self._breaks[-1]
        if lo <= 0:
            return signed_log_moment(self.logpdf, lo, hi, k)
        return float(log_power_integral(self.logpdf, self._breaks, [k])[0])


_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


def norm_pdf(z):
    """Standard normal density exp(-z^2/2) / sqrt(2 pi)."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def gaussian_tail_key(mu, sigma):
    """Tail key of N(mu, sigma^2): -log sf(x) = z^2/2 + log z + log sqrt(2 pi)
    + o(1) at z = (x - mu) / sigma."""
    return TailKey(
        power=2.0,
        coef=0.5 / sigma**2,
        x_coef=-mu / sigma**2,
        log_x=1.0,
        const=0.5 * (mu / sigma) ** 2 - np.log(sigma) + _LOG_SQRT_2PI,
    )


#: below this, ``gammaincc`` gives way to its continued fraction
_GAMMAINCC_FLOOR = 1e-280
_CF_STEPS = 1000
_CF_TINY = 1e-300
_CF_EPS = np.finfo(float).eps


def _log_gammaincc(a, z):
    """log Q(a, z) of the regularised upper incomplete gamma function.

    ``gammaincc`` underflows near z ~ 700; below ``_GAMMAINCC_FLOOR`` the
    continued fraction Q = z^a e^-z / Gamma(a) / (z + 1 - a - 1 (1 - a) /
    (z + 3 - a - 2 (2 - a) / ...)) takes over, by Lentz's method on all
    points at once, with the prefactor in log-domain.
    """
    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(z, dtype=float))
    q = gammaincc(a, z)
    with np.errstate(divide="ignore"):
        out = np.log(q)
    deep = (q < _GAMMAINCC_FLOOR) & np.isfinite(z)
    if deep.any():
        a, z = a[deep], z[deep]
        b = z + 1.0 - a
        c = np.full(z.shape, 1.0 / _CF_TINY)
        d = 1.0 / b
        frac = d
        for i in range(1, _CF_STEPS):
            an = -i * (i - a)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
            c = b + an / c
            c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
            d = 1.0 / d
            step = d * c
            frac = frac * step
            if np.all(np.abs(step - 1.0) <= _CF_EPS):
                break
        out[deep] = xlogy(a, z) - z - gammaln(a) + np.log(frac)
    return out


def hermite_he(u, k):
    """Probabilists' Hermite polynomial He_k evaluated elementwise.

    Uses the recurrence He_0 = 1, He_1 = u, He_k = u He_{k-1} - (k-1) He_{k-2}.
    """
    u = np.asarray(u, dtype=float)
    prev = np.ones_like(u)
    if k == 0:
        return prev
    cur = u.copy()
    for j in range(2, k + 1):
        prev, cur = cur, u * cur - (j - 1) * prev
    return cur


def gaussian_mixture_log_moments(centers, h, ks):
    """Exact log E[X^k] of the equal-weight mixture of N(c, h^2) over centres c:
    mean_i sum_{j even} C(k, j) c_i^(k-j) h^j (j-1)!!, summed with signs."""
    c = np.asarray(centers, dtype=float)
    out = []
    for k in map(int, ks):
        j = np.arange(0, k + 1, 2)
        # log C(k, j) h^j (j-1)!!, where (j-1)!! = j! / (2^(j/2) (j/2)!)
        logcoef = gammaln(k + 1) - gammaln(k - j + 1) - gammaln(j / 2 + 1) + j * np.log(h / np.sqrt(2))
        p = (k - j)[:, None]
        val, sign = logsumexp(logcoef[:, None] + xlogy(p, abs(c)), b=np.sign(c) ** p, return_sign=True)
        if sign <= 0:
            raise MomentsUndefined(f"moment of order {k} is not positive on this support")
        out.append(val - np.log(len(c)))
    return np.array(out)


def gaussian_mixture_derivative(centers, h, x, k):
    """k-th derivative at x of that mixture: the mean of (-1)^k He_k(u) phi(u)
    / h^(k+1) over u = (x - c) / h."""
    u = (float(x) - np.asarray(centers, dtype=float)) / h
    sign = -1.0 if k % 2 else 1.0
    return float(sign * (hermite_he(u, k) * norm_pdf(u)).sum() / (len(u) * h ** (k + 1)))


class _Family(NamedTuple):
    """Closed forms of one parametric family in the standardised variable
    z = (x - loc) / scale (or the probability q), with shape ``c``.

    Shaped families take a = shape, loc = 0 and live on [0, inf); the others
    take a = loc and live on the real line.  ``tail_key(a, b)`` is the
    ``TailKey`` of -log sf, and ``log_moment(k, a, b)`` the exact log E[X^k],
    or None where the moments need quadrature.
    """

    shaped: bool
    logpdf: Callable
    pdf: Callable
    cdf: Callable
    sf: Callable
    logsf: Callable
    ppf: Callable
    isf: Callable
    tail_key: Callable
    log_moment: Callable | None = None


#: family name -> closed forms; the formulas are scipy's gumbel_l, gamma,
#: weibull_min and norm
FAMILIES = {
    "gumbel": _Family(
        shaped=False,
        logpdf=lambda z, c: z - np.exp(z),
        pdf=lambda z, c: np.exp(z - np.exp(z)),
        cdf=lambda z, c: -expm1(-np.exp(z)),
        sf=lambda z, c: np.exp(-np.exp(z)),
        logsf=lambda z, c: -np.exp(z),
        ppf=lambda q, c: np.log(-log1p(-q)),
        isf=lambda q, c: np.log(-np.log(q)),
        tail_key=lambda a, b: TailKey(rate=1.0 / b, log_coef=-a / b),
    ),
    "gamma": _Family(
        shaped=True,
        logpdf=lambda z, c: xlogy(c - 1.0, z) - z - gammaln(c),
        pdf=lambda z, c: np.exp(xlogy(c - 1.0, z) - z - gammaln(c)),
        cdf=lambda z, c: gammainc(c, z),
        sf=lambda z, c: gammaincc(c, z),
        logsf=lambda z, c: _log_gammaincc(c, z),
        ppf=lambda q, c: gammaincinv(c, q),
        isf=lambda q, c: gammainccinv(c, q),
        # z - (a - 1) log z + log Gamma(a) + o(1)
        tail_key=lambda a, b: TailKey(
            power=1.0, coef=1.0 / b, log_x=1.0 - a, const=(a - 1.0) * np.log(b) + gammaln(a)
        ),
        log_moment=lambda k, a, b: k * np.log(b) + gammaln(a + k) - gammaln(a),
    ),
    "weibull": _Family(
        shaped=True,
        logpdf=lambda z, c: np.log(c) + xlogy(c - 1, z) - np.power(z, c),
        pdf=lambda z, c: c * np.power(z, c - 1) * np.exp(-np.power(z, c)),
        cdf=lambda z, c: -expm1(-np.power(z, c)),
        sf=lambda z, c: np.exp(-np.power(z, c)),
        logsf=lambda z, c: -np.power(z, c),
        ppf=lambda q, c: np.power(-log1p(-q), 1.0 / c),
        isf=lambda q, c: np.power(-np.log(q), 1 / c),
        tail_key=lambda a, b: TailKey(power=a, coef=b**-a),
        log_moment=lambda k, a, b: k * np.log(b) + gammaln(1.0 + k / a),
    ),
    "gaussian": _Family(
        shaped=False,
        logpdf=lambda z, c: -z**2 / 2.0 - _LOG_SQRT_2PI,
        pdf=lambda z, c: norm_pdf(z),
        cdf=lambda z, c: ndtr(z),
        sf=lambda z, c: ndtr(-z),
        logsf=lambda z, c: log_ndtr(-z),
        ppf=lambda q, c: ndtri(q),
        isf=lambda q, c: -ndtri(q),
        tail_key=gaussian_tail_key,
        log_moment=lambda k, a, b: gaussian_mixture_log_moments([a], b, [k])[0],
    ),
}


@dataclass(frozen=True)
class ParametricDistribution(LossDistribution):
    """Smooth parametric family: gumbel(a=location, b=scale),
    gamma(a=shape, b=scale), weibull(a=shape, b=scale), gaussian(mu, sigma).

    Evaluated with the closed forms of ``FAMILIES``: values outside the
    support are masked, and ppf/isf return the support bounds at q = 0, 1.
    """

    family: str
    a: float
    b: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.b <= 0:
            raise ValueError("scale parameter must be positive")
        if FAMILIES[self.family].shaped and self.a <= 0:
            raise ValueError("shape parameter must be positive")

    @property
    def _forms(self):
        return FAMILIES[self.family]

    @property
    def support(self):
        if self._forms.shaped:
            return SupportInterval(0.0, np.inf)
        return SupportInterval(-np.inf, np.inf)

    # The forms get 1-d arrays even for scalar input, the shape as an array
    # of the same length, and powers through np.power rather than ``**``:
    # numpy's scalar, broadcast and ``**`` paths differ in the last bit, and
    # these are the ones scipy takes.  Far tails overflow or divide by zero
    # where the limit is exact.

    def _on_support(self, form, x, below, at_inf=None):
        """``form`` at z = (x - loc) / scale, ``below`` left of the support
        and, if given, ``at_inf`` at x = +inf, where the density forms give
        inf - inf (the cdf and sf forms reach their limits there)."""
        x = np.asarray(x, dtype=float)
        loc, lower = (0.0, 0.0) if self._forms.shaped else (self.a, -np.inf)
        z = (np.atleast_1d(x) - loc) / self.b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inside = form(np.maximum(z, lower), np.full(z.shape, self.a))
        out = np.where(z < lower, below, inside)
        if at_inf is not None:
            out = np.where(z == np.inf, at_inf, out)
        return out.reshape(x.shape)[()]

    def _quantile(self, form, q, at0, at1):
        """``form`` at 0 < q < 1 mapped back to x, the bounds at q = 0 and 1."""
        q = np.asarray(q, dtype=float)
        loc = 0.0 if self._forms.shaped else self.a
        flat = np.atleast_1d(q)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inside = form(flat, np.full(flat.shape, self.a)) * self.b + loc
        out = np.select(
            [flat == 0, flat == 1, (flat > 0) & (flat < 1)], [at0, at1, inside], np.nan
        )
        return out.reshape(q.shape)[()]

    def pdf(self, x):
        return self._on_support(self._forms.pdf, x, 0.0, 0.0) / self.b

    def logpdf(self, x):
        return self._on_support(self._forms.logpdf, x, -np.inf, -np.inf) - np.log(self.b)

    def cdf(self, x):
        return self._on_support(self._forms.cdf, x, 0.0)

    def sf(self, x):
        return self._on_support(self._forms.sf, x, 1.0)

    def logsf(self, x):
        return self._on_support(self._forms.logsf, x, 0.0)

    def tail_key(self):
        return self._forms.tail_key(float(self.a), float(self.b))

    def ppf(self, q):
        return self._quantile(self._forms.ppf, q, self.support.lower, np.inf)

    def isf(self, q):
        return self._quantile(self._forms.isf, q, np.inf, self.support.lower)

    def derivative(self, x, k):
        """Closed form for the Gaussian, a one-component mixture."""
        if self.family != "gaussian":
            return super().derivative(x, k)
        return gaussian_mixture_derivative([self.a], self.b, x, k)

    def _log_moment(self, k):
        if self._forms.log_moment is not None:
            return self._forms.log_moment(k, self.a, self.b)
        lo, hi = _moment_window(self, k)
        return signed_log_moment(self.logpdf, lo, hi, k)


def _moment_window(d, k):
    """Integration window wide enough for the x^k-weighted density of d."""
    lo = float(d.ppf(1e-18))
    hi = float(d.isf(1e-18))
    step = max(1.0, 0.05 * (hi - lo))
    hi = _moment_bound(d, k, hi, step, +1)
    if lo < 0:
        lo = _moment_bound(d, k, lo, step, -1)
    return lo, hi


def _moment_bound(d, k, start, step, direction):
    """Follow the x^k-weighted density of d from start until it is negligible."""

    def logw(x):
        return k * np.log(max(abs(x), 1e-300)) + float(d.logpdf(x))

    return expand_bound(logw, start, step, direction)


def Gumbel(a, b):
    """Minimum-extreme-value Gumbel with location a and scale b."""
    return ParametricDistribution("gumbel", a, b)


def Gamma(a, b):
    return ParametricDistribution("gamma", a, b)


def Weibull(a, b):
    return ParametricDistribution("weibull", a, b)


def Gaussian(mu, sigma):
    return ParametricDistribution("gaussian", mu, sigma)


class TruncatedDistribution(LossDistribution):
    """Conditional distribution Pr(X <= x | a <= X <= b) of a continuous base.

    A window unbounded above keeps the base's tail: its tail key is the base
    key plus log(mass), and its log survival the base's minus log(mass).
    """

    def __init__(self, base, window: SupportInterval):
        if not base.has_density:
            raise NoDensity("truncation requires a base with a density")
        eff = window.intersect(base.support)
        # a difference of two base tails errs by eps times the larger one, so
        # the window is measured in survivals above the median, cdfs below it
        lo_sf, hi_cdf = float(base.sf(eff.lower)), float(base.cdf(eff.upper))
        self._tail = base.sf if lo_sf <= hi_cdf else base.cdf
        self._ends = (float(self._tail(eff.lower)), float(self._tail(eff.upper)))
        mass = abs(self._ends[1] - self._ends[0])
        if mass <= 1e-300:
            raise EmptyTruncation(
                f"window [{window.lower}, {window.upper}] carries no mass"
            )
        self.base = base
        self.window = eff
        self._mass = mass

    @property
    def support(self):
        return self.window

    @property
    def renormalization(self):
        """Pr(a <= X <= b) under the base distribution."""
        return self._mass

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.window.lower) & (x <= self.window.upper)
        return np.where(inside, self.base.pdf(x) / self._mass, 0.0)[()]

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.window.lower) & (x <= self.window.upper)
        return np.where(
            inside, self.base.logpdf(x) - np.log(self._mass), -np.inf
        )[()]

    def _share(self, x, end):
        """Window mass between x and the lower (end 0) or upper (end 1) end."""
        x = np.clip(np.asarray(x, dtype=float), self.window.lower, self.window.upper)
        part = np.abs(self._tail(x) - self._ends[end]) / self._mass
        return np.clip(part, 0.0, 1.0)[()]

    def cdf(self, x):
        return self._share(x, 0)

    def sf(self, x):
        return self._share(x, 1)

    def derivative(self, x, k):
        return self.base.derivative(x, k) / self._mass

    def logsf(self, x):
        if self.window.upper < np.inf:
            return super().logsf(x)
        x = np.asarray(x, dtype=float)
        lo = self.window.lower
        inner = self.base.logsf(np.maximum(x, lo)) - np.log(self._mass)
        return np.where(x < lo, 0.0, inner)[()]

    def tail_key(self):
        key = self.base.tail_key()
        if key is None or self.window.upper < np.inf:
            return None
        return key.plus(np.log(self._mass))

    def log_moments(self, ks):
        if self.window.lower <= 0:
            return super().log_moments(ks)
        edges = np.linspace(self.window.lower, self.window.upper, 129)
        return log_power_integral(self.logpdf, edges, ks)

    def _log_moment(self, k):
        lo, hi = self.window.lower, self.window.upper
        if not np.isfinite(lo):
            lo = _moment_bound(self, k, hi, 1.0, -1)
        return signed_log_moment(self.logpdf, lo, hi, k)


@dataclass(frozen=True)
class PointMass(_FinitePmf):
    """Degenerate distribution: all mass at a single loss value >= 1."""

    value: float

    def __post_init__(self):
        if self.value < 1.0:
            raise ValueError("point mass must sit at a loss value >= 1")

    @property
    def support(self):
        return SupportInterval(self.value, self.value)

    def pdf(self, x):
        raise NoDensity("point mass has no density")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)[()]

    def descending_pmf(self):
        return np.asarray([self.value]), np.asarray([1.0])


class LatticeDistribution(LossDistribution):
    """Discrete distribution on the integers {lower, lower+1, ...} with
    unbounded support, defined by a log-pmf callable."""

    _CAP = 100_000

    def __init__(self, log_pmf, lower=1, name="lattice"):
        self._log_pmf = log_pmf
        self.lower = int(lower)
        self.name = name

    has_density = False
    is_discrete = True

    @property
    def support(self):
        return SupportInterval(float(self.lower), np.inf)

    def pdf(self, x):
        raise NoDensity("lattice distribution has no density")

    def pmf(self, j):
        return float(np.exp(self._log_pmf(int(j))))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # number of support points at or below x, capped like the scans below
        counts = np.clip(np.floor(x) - self.lower + 1, 0, self._CAP)
        n = int(np.nanmax(counts, initial=0))
        pmfs = [self.pmf(j) for j in range(self.lower, self.lower + n)]
        cum = np.minimum(1.0, np.cumsum([0.0, *pmfs]))
        out = cum[np.nan_to_num(counts).astype(int)]
        return np.where(np.isnan(x), np.nan, out)[()]

    def quantile(self, q):
        """Smallest support point j with CDF(j) >= q."""
        acc = 0.0
        for j in range(self.lower, self._CAP):
            acc += self.pmf(j)
            if acc >= q:
                return j
        raise MomentsUndefined("quantile scan exceeded lattice cap")

    def isf(self, q):
        return self.quantile(1.0 - q)

    def truncated(self, a, b):
        """Renormalised finite restriction to integer points in [a, b]."""
        points = list(range(max(self.lower, int(np.ceil(a))), int(np.floor(b)) + 1))
        probs = np.array([self.pmf(j) for j in points])
        total = probs.sum()
        if total <= 0:
            raise EmptyTruncation("lattice window carries no mass")
        probs = probs / total
        order = np.argsort(points)[::-1]
        return CategoricalDistribution(
            labels=tuple(str(points[i]) for i in order),
            ranks=tuple(float(points[i]) for i in order),
            probs=tuple(probs[i] for i in order),
        )

    def _log_moment(self, k):
        terms = []
        best = -np.inf
        for j in range(max(self.lower, 1), self._CAP):
            t = self._log_pmf(j) + k * np.log(j)
            terms.append(t)
            best = max(best, t)
            if t < best - 60 and j > 10 * (k + 1):
                break
        return float(logsumexp(terms))


def truncate(d, a, b):
    """Truncate a density-bearing distribution to the window [a, b]."""
    if a >= b:
        raise ValueError("truncation window must satisfy a < b")
    return TruncatedDistribution(d, SupportInterval(float(a), float(b)))

