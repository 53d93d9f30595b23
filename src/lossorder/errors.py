"""Exception types shared across the library."""


class LossOrderError(Exception):
    """Base class for all errors raised by this package."""


class NoDensity(LossOrderError):
    """The distribution has no density function (e.g. a point mass)."""


class InvalidOrder(LossOrderError):
    """Moment order k must be a positive integer."""


class DerivativeUnavailable(LossOrderError):
    """The representation has no closed form for this density derivative."""


class MomentsUndefined(LossOrderError):
    """The requested moment does not exist or is not representable in log-domain."""


class EmptyTruncation(LossOrderError):
    """The truncation window carries no probability mass."""


class SupportMismatch(LossOrderError):
    """Two categorical distributions do not share a common ordered support."""


class Undecided(LossOrderError):
    """No stable dominance run was found within the moment prefix.

    Carries the per-order comparison trace so the caller can inspect it or
    retry with a longer prefix.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class ThresholdNotFound(LossOrderError):
    """Survival dominance never holds up to the support maximum."""


class MeaninglessComparison(LossOrderError):
    """The two inputs do not live in a common (metric) space."""


class AdmissibilityError(LossOrderError):
    """The input violates the admissibility requirements of the core comparison."""


class JsonFormError(LossOrderError, ValueError):
    """A document is no distribution's JSON form, or a distribution has none."""


class EmptyData(LossOrderError):
    """An operation received no usable data."""


class RowError(LossOrderError):
    """A delimited-text row could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ScaleViolation(LossOrderError):
    """A score falls outside the declared rating scale."""


class RangeError(LossOrderError):
    """An index or split point is out of range."""


class InvalidConfig(LossOrderError):
    """A simulation configuration value is invalid."""
