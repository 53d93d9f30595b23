"""Total preference ordering on loss distributions.

The order prefers the distribution whose moment sequence is eventually
dominated: F1 is preferred over F2 when E[X1^k] <= E[X2^k] for all
sufficiently large k.  On finite representations the decision reduces to
fast special-case rules (lexicographic comparison of categorical pmf
vectors, signed density derivatives at the right support endpoint, point
mass rules, a truncation ladder for unbounded tails), all of which agree
with the moment criterion where their domains overlap.

The rules ask each representation for what they need through the methods of
``LossDistribution`` (``log_moments``, ``derivative``, ``isf``, ``sf``) and
its class flags (``has_density``, ``is_discrete``, ``from_samples``), and do
not inspect its type to get them.  Only the point-mass, categorical and
lattice rules, each of which exists for one representation, test for it.

Every strict verdict comes with a tail threshold x0: the point above which
the preferred option's survival function is dominated by the other's.
"""

import enum
from dataclasses import dataclass

import numpy as np

from ._quad import bisect
from .distributions import (
    CategoricalDistribution,
    LatticeDistribution,
    PointMass,
    descending_pmf,
    truncate,
)
from .errors import (
    AdmissibilityError,
    DerivativeUnavailable,
    MeaninglessComparison,
    SupportMismatch,
    ThresholdNotFound,
    Undecided,
)

__all__ = [
    "Relation",
    "MomentSequence",
    "PreferenceVerdict",
    "TailThreshold",
    "moment_sequence",
    "compare_categorical",
    "compare_moment_sequences",
    "compare_smooth",
    "compare_point_mass",
    "compare_extended",
    "compare_kdes",
    "compare",
    "tail_threshold",
    "density_derivative",
]

#: default moment-prefix length
DEFAULT_K_MAX = 64
#: consecutive strict agreements required to declare dominance
DOMINANCE_WINDOW = 8
#: per-order tie tolerance (relative, i.e. absolute in log-domain)
MOMENT_TIE_TOL = 1e-5
#: full-equivalence tolerance (relative)
EQUIVALENCE_TOL = 1e-9
#: pmf entry tolerance for the categorical lexicographic rule
PMF_TOL = 1e-12
#: derivative tolerance for the derivative-lexicographic rule
DERIVATIVE_TOL = 1e-9
#: derivative orders examined before falling back to moments
DEFAULT_K_DER = 16
#: survival-dominance slack in the tail-threshold check
SURVIVAL_TOL = 1e-9
#: verification grid size for continuous tail thresholds
GRID_SIZE = 4096
#: truncation-ladder levels: windows end at survival quantiles 10^-j
LADDER_LEVELS = tuple(10.0 ** -j for j in range(1, 7))


class Relation(enum.Enum):
    FIRST_STRICT = "FirstStrictlyPreferred"
    SECOND_STRICT = "SecondStrictlyPreferred"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


def _flip(relation):
    if relation is Relation.FIRST_STRICT:
        return Relation.SECOND_STRICT
    if relation is Relation.SECOND_STRICT:
        return Relation.FIRST_STRICT
    return relation


@dataclass(frozen=True)
class MomentSequence:
    """Finite prefix of (log E[X^k])_{k=1..k_max}."""

    log_moments: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "log_moments", tuple(float(v) for v in self.log_moments)
        )
        if not all(np.isfinite(v) for v in self.log_moments):
            raise ValueError("moment sequence entries must be finite")

    @property
    def k_max(self):
        return len(self.log_moments)


@dataclass(frozen=True)
class PreferenceVerdict:
    """Outcome of a preference comparison and the rule that decided it."""

    relation: Relation
    decided_by: str
    stabilization_index: int | None = None
    caveat: str | None = None

    def flipped(self):
        return PreferenceVerdict(
            _flip(self.relation), self.decided_by, self.stabilization_index, self.caveat
        )

    @property
    def preferred_index(self):
        """0 or 1 for strict verdicts, None otherwise."""
        if self.relation is Relation.FIRST_STRICT:
            return 0
        if self.relation is Relation.SECOND_STRICT:
            return 1
        return None


@dataclass(frozen=True)
class TailThreshold:
    """Threshold x0 plus the survival evidence grid that certifies it.

    ``grid`` rows are (x, survival_first(x), survival_second(x)); every row
    lies at or above x0 and witnesses the dominance inequality.  For
    categorical data x0 is a category label.
    """

    x0: float | str
    grid: tuple


def moment_sequence(d, k_max=DEFAULT_K_MAX):
    """Build the log-domain moment prefix of a distribution."""
    return MomentSequence(tuple(d.log_moments(np.arange(1, k_max + 1))))


def compare_moment_sequences(
    m1,
    m2,
    window=DOMINANCE_WINDOW,
    tie_tol=MOMENT_TIE_TOL,
    equiv_tol=EQUIVALENCE_TOL,
):
    """Decide preference by scanning the two moment prefixes.

    Strict dominance requires the last ``window`` orders to agree strictly in
    one direction; the reported stabilization index is the first order of
    that final stable run.
    """
    if m1.k_max != m2.k_max:
        raise ValueError("moment sequences must share k_max")
    diffs = np.asarray(m2.log_moments) - np.asarray(m1.log_moments)
    if np.all(np.abs(diffs) <= equiv_tol):
        return PreferenceVerdict(Relation.EQUIVALENT, decided_by="MomentDominance")
    signs = np.where(diffs > tie_tol, 1, np.where(diffs < -tie_tol, -1, 0))
    last = signs[-1]
    trace = list(zip(range(1, m1.k_max + 1), signs.tolist()))
    if last == 0:
        raise Undecided("no strict dominance at the end of the prefix", trace)
    start = m1.k_max
    while start > 1 and signs[start - 2] == last:
        start -= 1
    run = m1.k_max - start + 1
    if run < window:
        raise Undecided(
            f"stable run of length {run} is shorter than the window {window}",
            trace,
        )
    relation = Relation.FIRST_STRICT if last > 0 else Relation.SECOND_STRICT
    return PreferenceVerdict(
        relation, decided_by="MomentDominance", stabilization_index=start
    )


def _aligned_descending(p, q):
    vp, pp = descending_pmf(p)
    vq, pq = descending_pmf(q)
    if len(vp) == len(vq) and np.allclose(vp, vq, rtol=0, atol=1e-9):
        return vp, pp, pq
    values = np.union1d(vp, vq)[::-1]
    fp = np.zeros(len(values))
    fq = np.zeros(len(values))
    fp[np.searchsorted(-values, -vp)] = pp
    fq[np.searchsorted(-values, -vq)] = pq
    return values, fp, fq


def compare_categorical(p, q, tol=PMF_TOL):
    """Lexicographic comparison of pmf vectors in descending severity order."""
    if isinstance(p, CategoricalDistribution) and isinstance(q, CategoricalDistribution):
        if p.labels != q.labels or not np.allclose(
            p.ranks, q.ranks, rtol=0, atol=1e-9
        ):
            raise SupportMismatch("categorical supports differ; align them first")
    _, fp, fq = _aligned_descending(p, q)
    for i, (a, b) in enumerate(zip(fp, fq)):
        if abs(a - b) > tol:
            relation = Relation.FIRST_STRICT if a < b else Relation.SECOND_STRICT
            return PreferenceVerdict(
                relation, decided_by="CategoricalLex", stabilization_index=i + 1
            )
    return PreferenceVerdict(Relation.EQUIVALENT, decided_by="CategoricalLex")


def compare_point_mass(a, y):
    """Preference between a deterministic loss and a random one."""
    if isinstance(y, PointMass):
        if abs(a.value - y.value) <= 1e-12:
            return PreferenceVerdict(Relation.EQUIVALENT, decided_by="PointMassRule")
        relation = (
            Relation.FIRST_STRICT if a.value < y.value else Relation.SECOND_STRICT
        )
        return PreferenceVerdict(relation, decided_by="PointMassRule")
    b = y.support.upper
    if a.value < b:
        return PreferenceVerdict(Relation.FIRST_STRICT, decided_by="PointMassRule")
    # a >= b: every realisation of y is at most a, so y is preferred
    return PreferenceVerdict(Relation.SECOND_STRICT, decided_by="PointMassRule")


def density_derivative(d, x, k):
    """k-th derivative of a density at x: the density itself at k = 0, the
    representation's closed form above (``DerivativeUnavailable`` if none)."""
    if k == 0:
        return float(d.pdf(x))
    return d.derivative(x, k)


def compare_smooth(f, g, k_der=DEFAULT_K_DER, k_max=DEFAULT_K_MAX):
    """Derivative-lexicographic comparison at the common right endpoint.

    Examines ((-1)^k f_k(a))_k for k = 0..k_der; the lexicographically
    smaller sequence is preferred.  Exhausted or unavailable derivatives fall
    back to the moment-sequence comparison.
    """
    af, ag = f.support.upper, g.support.upper
    if not (np.isfinite(af) and np.isfinite(ag)):
        raise ValueError("compare_smooth needs compact supports")
    if abs(af - ag) > 1e-9 * max(1.0, abs(af)):
        raise ValueError("right endpoints differ; use the dispatcher")
    a = af
    try:
        for k in range(k_der + 1):
            sign = -1.0 if k % 2 else 1.0
            vf = sign * density_derivative(f, a, k)
            vg = sign * density_derivative(g, a, k)
            tol = max(DERIVATIVE_TOL, DERIVATIVE_TOL * max(abs(vf), abs(vg)))
            if abs(vf - vg) > tol:
                relation = (
                    Relation.FIRST_STRICT if vf < vg else Relation.SECOND_STRICT
                )
                return PreferenceVerdict(
                    relation, decided_by="DerivativeLex", stabilization_index=k
                )
    except DerivativeUnavailable:
        pass
    return compare_moment_sequences(
        moment_sequence(f, k_max), moment_sequence(g, k_max)
    )


def _isf(d, q):
    return float(d.isf(q))


def _ratio_criterion(f, g, x_top, x_start):
    """Numeric surrogate of the vanishing-density-ratio criterion."""
    if x_start >= x_top:
        return None
    xs = np.geomspace(max(x_start, 1e-9), x_top, 256)
    with np.errstate(invalid="ignore"):
        logr = np.asarray(f.logpdf(xs), dtype=float) - np.asarray(
            g.logpdf(xs), dtype=float
        )
    tail = logr[len(logr) // 2 :]
    if np.all(np.isfinite(tail)):
        decreasing = np.all(np.diff(tail) <= 1e-12)
        if decreasing and tail[-1] < np.log(1e-3):
            return Relation.FIRST_STRICT
    with np.errstate(invalid="ignore"):
        tail_inv = -logr[len(logr) // 2 :]
    if np.all(np.isfinite(tail_inv)):
        decreasing = np.all(np.diff(tail_inv) <= 1e-12)
        if decreasing and tail_inv[-1] < np.log(1e-3):
            return Relation.SECOND_STRICT
    return None


def _ladder_verdicts(pairs, k_max):
    directions = []
    for t1, t2 in pairs:
        try:
            v = compare_moment_sequences(
                moment_sequence(t1, k_max), moment_sequence(t2, k_max)
            )
        except Undecided:
            return None
        directions.append(v.relation)
    return directions


def compare_extended(f, g, levels=LADDER_LEVELS, k_max=DEFAULT_K_MAX):
    """Preference between distributions with unbounded upper tails.

    Tries the density-ratio criterion first; otherwise compares truncations
    on a ladder of survival-quantile windows and requires a unanimous
    direction.  Ladder disagreement means the pair is incomparable.
    """
    lattice = isinstance(f, LatticeDistribution) and isinstance(g, LatticeDistribution)
    points = sorted({max(_isf(f, eps), _isf(g, eps)) for eps in levels})
    if lattice:
        # adjacent truncation points expose alternating (parity-dependent)
        # preferences, which quantile points alone can miss
        pts = sorted({int(np.floor(p)) for p in points})
        pts = sorted({q for p in pts for q in (p, p + 1)})
        pairs = [(f.truncated(1, p), g.truncated(1, p)) for p in pts]
    else:
        verdict = _ratio_criterion(f, g, points[-1], points[0])
        if verdict is not None:
            return PreferenceVerdict(verdict, decided_by="RatioCriterion")
        pairs = [(truncate(f, 1.0, p), truncate(g, 1.0, p)) for p in points]
    directions = _ladder_verdicts(pairs, k_max)
    if directions is None:
        return PreferenceVerdict(
            Relation.INCOMPARABLE,
            decided_by="TruncationLadder",
            caveat="a ladder comparison did not stabilize",
        )
    strict = {d for d in directions if d is not Relation.EQUIVALENT}
    if len(strict) > 1:
        return PreferenceVerdict(Relation.INCOMPARABLE, decided_by="TruncationLadder")
    if not strict:
        return PreferenceVerdict(
            Relation.EQUIVALENT,
            decided_by="TruncationLadder",
            caveat="all ladder comparisons tied",
        )
    return PreferenceVerdict(strict.pop(), decided_by="TruncationLadder")


def compare_kdes(k1, k2, multiplier=1.0, k_der=16):
    """Preference between two KDEs following the effective-bound rule.

    If the effective upper bounds differ, the estimate whose mass ends lower
    is preferred outright.  Otherwise both are truncated at the common bound
    and the derivative-lexicographic comparison decides.
    """
    e1 = k1.effective_upper_bound(multiplier)
    e2 = k2.effective_upper_bound(multiplier)
    scale = max(abs(e1), abs(e2), 1.0)
    if abs(e1 - e2) > 1e-9 * scale:
        relation = Relation.FIRST_STRICT if e1 < e2 else Relation.SECOND_STRICT
        return PreferenceVerdict(relation, decided_by="EffectiveBound")
    return compare_smooth(truncate(k1, 1.0, e1), truncate(k2, 1.0, e1), k_der=k_der)


def _check_admissible(d):
    lo = d.support.lower
    if np.isfinite(lo) and lo < 1.0 - 1e-9:
        if d.support.is_compact:
            raise AdmissibilityError(
                f"support lower bound {lo} < 1; shift the losses into [1, inf)"
            )


def compare(d1, d2, k_max=DEFAULT_K_MAX, common_scale=False):
    """Decide the preference between two loss distributions.

    Dispatches to the fastest applicable rule: point-mass rules, the
    support-bound rule when upper bounds differ (one of them may be
    infinite), lexicographic comparison for categorical/histogram data,
    derivative-lexicographic comparison for smooth densities on a common
    compact support, the truncation ladder for two unbounded tails, and the
    moment-sequence scan for everything else.
    """
    if isinstance(d1, PointMass) or isinstance(d2, PointMass):
        if isinstance(d1, PointMass):
            return compare_point_mass(d1, d2)
        return compare_point_mass(d2, d1).flipped()
    cat1 = isinstance(d1, CategoricalDistribution)
    cat2 = isinstance(d2, CategoricalDistribution)
    if cat1 != cat2 and not common_scale:
        raise MeaninglessComparison(
            "ordinal categories cannot be compared with numeric losses unless "
            "a common scale is declared (common_scale=True)"
        )
    _check_admissible(d1)
    _check_admissible(d2)
    if d1.from_samples and d2.from_samples:
        return compare_kdes(d1, d2)
    u1, u2 = d1.support.upper, d2.support.upper
    finite1, finite2 = np.isfinite(u1), np.isfinite(u2)
    # finiteness is tested on its own: abs(inf - b) > 1e-9 * inf is False
    if finite1 != finite2 or (
        finite1 and abs(u1 - u2) > 1e-9 * max(1.0, abs(u1), abs(u2))
    ):
        # the wider (or unbounded) support puts mass beyond the narrower
        # one's maximum, so its moments ultimately grow faster
        relation = Relation.FIRST_STRICT if u1 < u2 else Relation.SECOND_STRICT
        return PreferenceVerdict(relation, decided_by="SupportBound")
    if not finite1:
        return compare_extended(d1, d2, k_max=k_max)
    if d1.is_discrete and d2.is_discrete:
        return compare_categorical(d1, d2)
    if d1.has_density and d2.has_density:
        return compare_smooth(d1, d2, k_max=k_max)
    return compare_moment_sequences(
        moment_sequence(d1, k_max), moment_sequence(d2, k_max)
    )


def _categorical_threshold(pref, other, first, second):
    ranks = np.asarray(pref.ranks)[::-1]  # ascending severity
    labels = list(pref.labels)[::-1]
    sp = np.array([pref.sf(r) for r in ranks])
    so = np.array([other.sf(r) for r in ranks])
    n = len(ranks)
    for i in range(n):
        if sp[i] < so[i] - PMF_TOL and np.all(sp[i:] <= so[i:] + SURVIVAL_TOL):
            grid = tuple(
                (float(ranks[j]), float(first.sf(ranks[j])), float(second.sf(ranks[j])))
                for j in range(i, n)
            )
            return TailThreshold(labels[i], grid)
    if np.all(sp <= so + SURVIVAL_TOL):
        grid = tuple(
            (float(r), float(first.sf(r)), float(second.sf(r))) for r in ranks
        )
        return TailThreshold(labels[0], grid)
    raise ThresholdNotFound("survival dominance never holds on the category scale")


def _discrete_threshold(pref, other, first, second):
    values = np.union1d(
        descending_pmf(pref)[0], descending_pmf(other)[0]
    )  # ascending
    sp = np.array([pref.sf(v) for v in values])
    so = np.array([other.sf(v) for v in values])
    viol = sp > so + SURVIVAL_TOL
    if viol.any():
        last = int(np.max(np.nonzero(viol)))
        if last == len(values) - 1:
            raise ThresholdNotFound(
                "survival dominance never holds up to the support maximum"
            )
        start = last + 1
        x0 = float(values[last])
    else:
        start = 0
        x0 = float(values[0])
    grid = tuple(
        (float(v), float(first.sf(v)), float(second.sf(v)))
        for v in values[start:]
    )
    return TailThreshold(x0, grid)


def _continuous_threshold(pref, other, first, second, grid_size):
    lowers = [d.support.lower for d in (pref, other)]
    lo = max(1.0, min(l for l in lowers if np.isfinite(l)) if any(
        np.isfinite(l) for l in lowers
    ) else 1.0)
    uppers = [d.support.upper for d in (pref, other)]
    if all(np.isfinite(u) for u in uppers):
        hi = max(uppers)
    else:
        hi = max(_isf(pref, 1e-9), _isf(other, 1e-9))
    xs = np.linspace(lo, hi, grid_size)
    sp = np.asarray(pref.sf(xs), dtype=float)
    so = np.asarray(other.sf(xs), dtype=float)
    diff = so - sp
    # hybrid tolerance: absolute floor for noise near zero, relative slack so
    # deep-tail violations (tiny survivals, large ratios) are still caught
    slack = np.maximum(1e-12, 1e-6 * np.maximum(sp, so))
    viol = diff < -slack
    if not viol.any():
        x0 = lo
        start = 0
    else:
        last = int(np.max(np.nonzero(viol)))
        if last == len(xs) - 1:
            raise ThresholdNotFound(
                "survival dominance never holds up to the support maximum"
            )

        def violated(x):
            smp, smo = float(pref.sf(x)), float(other.sf(x))
            return smo - smp < -max(1e-12, 1e-6 * max(smp, smo))

        x0 = bisect(violated, xs[last], xs[last + 1], 80)[1]
        start = last + 1
    points = np.concatenate([[x0], xs[start:]])
    s1 = np.asarray(first.sf(points), dtype=float)
    s2 = np.asarray(second.sf(points), dtype=float)
    sp = s1 if pref is first else s2
    so = s2 if pref is first else s1
    if np.any(sp - so > np.maximum(1e-12, 1e-6 * np.maximum(sp, so))):
        raise ThresholdNotFound("verification grid rejects the candidate threshold")
    grid = tuple(zip(points.tolist(), s1.tolist(), s2.tolist()))
    return TailThreshold(float(x0), grid)


def tail_threshold(d1, d2, verdict, grid_size=GRID_SIZE):
    """Tail threshold x0 certifying a preference verdict.

    Above x0 the preferred distribution's survival function never exceeds
    the other's (up to tolerance); the returned grid is the evidence.
    """
    if verdict.relation is Relation.INCOMPARABLE:
        raise ValueError("incomparable verdicts have no tail threshold")
    if verdict.relation is Relation.SECOND_STRICT:
        pref, other = d2, d1
    else:
        pref, other = d1, d2
    if d1.from_samples and d2.from_samples:
        # normalise the loss scale so the pooled sample minimum sits at 1;
        # survival dominance is shift-equivariant, the threshold is reported
        # on the normalised scale
        shift = 1.0 - min(min(d1.samples), min(d2.samples))
        d1s, d2s = d1.shifted(shift), d2.shifted(shift)
        prefs = d1s if pref is d1 else d2s
        others = d2s if pref is d1 else d1s
        return _continuous_threshold(prefs, others, d1s, d2s, grid_size)
    if verdict.decided_by == "SupportBound":
        hi = other.support.upper
        if not np.isfinite(hi):
            hi = max(pref.support.upper, _isf(other, 1e-9))
        xs = np.linspace(pref.support.upper, hi, 64)
        grid = tuple(
            (float(x), float(d1.sf(x)), float(d2.sf(x))) for x in xs
        )
        return TailThreshold(float(pref.support.upper), grid)
    if isinstance(pref, CategoricalDistribution) and isinstance(
        other, CategoricalDistribution
    ):
        return _categorical_threshold(pref, other, d1, d2)
    if pref.is_discrete and other.is_discrete and (
        pref.support.is_compact and other.support.is_compact
    ):
        return _discrete_threshold(pref, other, d1, d2)
    return _continuous_threshold(pref, other, d1, d2, grid_size)
