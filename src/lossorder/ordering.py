"""Total preference ordering on loss distributions.

The order prefers the distribution whose moment sequence is eventually
dominated: F1 is preferred over F2 when E[X1^k] <= E[X2^k] for all
sufficiently large k.  On finite representations the decision reduces to
fast special-case rules (lexicographic comparison of categorical pmf
vectors, signed density derivatives at the right support endpoint, point
mass rules, exact tail asymptotics for unbounded tails), all of which agree
with the moment criterion where their domains overlap.

Two unbounded tails are ordered by their tail keys, the leading terms of
-log sf(x) as x -> inf: the lighter tail has the eventually smaller
moments (the density-ratio lemma).  Keys hold only those leading terms:
keys that agree are equivalent if the survivals agree over the bulk too.
Lattices have no key: two of them compare moment prefixes on a ladder of
integer windows that end at survival quantiles.  An unbounded pair with
neither two keys nor two lattices is refused with ``NoDensity``.

The rules ask each representation for what they need through the methods of
``LossDistribution`` (``log_moments``, ``derivative``, ``isf``, ``sf``,
``logsf``, ``tail_key``, and ``truncated`` and ``descending_pmf`` on the
discrete ones) and its class flags (``has_density``, ``is_discrete``,
``from_samples``), and do not inspect its type to get them.  Only the
point-mass and categorical rules, each of which exists for one
representation, test for it.

Every strict verdict comes with a tail threshold x0: the point above which
the preferred option's survival function is dominated by the other's.  For
verdicts of the tail keys, the search for x0 follows log survivals out to
``ISF_CAP``, far beyond where the survivals themselves underflow.
"""

import enum
from dataclasses import dataclass

import numpy as np

from ._quad import bisect
from .distributions import (
    ISF_CAP,
    CategoricalDistribution,
    PointMass,
    truncate,
)
from .errors import (
    AdmissibilityError,
    DerivativeUnavailable,
    MeaninglessComparison,
    NoDensity,
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
#: relative survival-dominance slack of continuous tail thresholds
SURVIVAL_REL = 1e-6
#: the same slack between log survivals
_LOG_SURVIVAL_REL = -np.log1p(-SURVIVAL_REL)
#: verification grid size for continuous tail thresholds
GRID_SIZE = 4096
#: points of the geometric far-tail grid behind tail-key verdicts
FAR_GRID_SIZE = 256
#: relative tolerance under which two tail-key terms tie
TAIL_KEY_TOL = 1e-12
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


def compare_moment_sequences(m1, m2):
    """Decide preference by scanning the two moment prefixes.

    Strict dominance requires the last ``DOMINANCE_WINDOW`` orders to agree
    strictly in one direction; the reported stabilization index is the first
    order of that final stable run.
    """
    if m1.k_max != m2.k_max:
        raise ValueError("moment sequences must share k_max")
    diffs = np.asarray(m2.log_moments) - np.asarray(m1.log_moments)
    if np.all(np.abs(diffs) <= EQUIVALENCE_TOL):
        return PreferenceVerdict(Relation.EQUIVALENT, decided_by="MomentDominance")
    signs = np.where(diffs > MOMENT_TIE_TOL, 1, np.where(diffs < -MOMENT_TIE_TOL, -1, 0))
    last = signs[-1]
    trace = list(zip(range(1, m1.k_max + 1), signs.tolist()))
    if last == 0:
        raise Undecided("no strict dominance at the end of the prefix", trace)
    start = m1.k_max
    while start > 1 and signs[start - 2] == last:
        start -= 1
    run = m1.k_max - start + 1
    if run < DOMINANCE_WINDOW:
        raise Undecided(
            f"stable run of length {run} is shorter than the window {DOMINANCE_WINDOW}",
            trace,
        )
    relation = Relation.FIRST_STRICT if last > 0 else Relation.SECOND_STRICT
    return PreferenceVerdict(
        relation, decided_by="MomentDominance", stabilization_index=start
    )


def _aligned_descending(p, q):
    vp, pp = p.descending_pmf()
    vq, pq = q.descending_pmf()
    if len(vp) == len(vq) and np.allclose(vp, vq, rtol=0, atol=1e-9):
        return vp, pp, pq
    values = np.union1d(vp, vq)[::-1]
    fp = np.zeros(len(values))
    fq = np.zeros(len(values))
    fp[np.searchsorted(-values, -vp)] = pp
    fq[np.searchsorted(-values, -vq)] = pq
    return values, fp, fq


def compare_categorical(p, q):
    """Lexicographic comparison of pmf vectors in descending severity order."""
    if isinstance(p, CategoricalDistribution) and isinstance(q, CategoricalDistribution):
        if p.labels != q.labels or not np.allclose(
            p.ranks, q.ranks, rtol=0, atol=1e-9
        ):
            raise SupportMismatch("categorical supports differ; align them first")
    _, fp, fq = _aligned_descending(p, q)
    for i, (a, b) in enumerate(zip(fp, fq)):
        if abs(a - b) > PMF_TOL:
            relation = Relation.FIRST_STRICT if a < b else Relation.SECOND_STRICT
            return PreferenceVerdict(
                relation, decided_by="CategoricalLex", stabilization_index=i + 1
            )
    return PreferenceVerdict(Relation.EQUIVALENT, decided_by="CategoricalLex")


def compare_point_mass(a, y):
    """Preference between a deterministic loss and a random one."""
    b = y.support.upper
    if y.support.lower == b and abs(a.value - b) <= 1e-12:
        # y is the same sure loss, whatever represents it
        return PreferenceVerdict(Relation.EQUIVALENT, decided_by="PointMassRule")
    # a >= b: every realisation of y is at most a, so y is preferred
    relation = Relation.FIRST_STRICT if a.value < b else Relation.SECOND_STRICT
    return PreferenceVerdict(relation, decided_by="PointMassRule")


def compare_smooth(f, g, k_max=DEFAULT_K_MAX):
    """Derivative-lexicographic comparison at the common right endpoint.

    Examines ((-1)^k f_k(a))_k for k = 0..DEFAULT_K_DER, f_0 being the
    density itself; the lexicographically smaller sequence is preferred.
    Exhausted or unavailable derivatives fall back to the moment-sequence
    comparison.
    """
    af, ag = f.support.upper, g.support.upper
    if not (np.isfinite(af) and np.isfinite(ag)):
        raise ValueError("compare_smooth needs compact supports")
    if abs(af - ag) > 1e-9 * max(1.0, abs(af)):
        raise ValueError("right endpoints differ; use the dispatcher")
    a = af
    try:
        for k in range(DEFAULT_K_DER + 1):
            sign = -1.0 if k % 2 else 1.0
            vf = sign * f.derivative(a, k)
            vg = sign * g.derivative(a, k)
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


def _tail_relation(kf, kg):
    """The side with the larger tail key, the lighter tail; None when the
    keys agree in every term to ``TAIL_KEY_TOL``."""
    for a, b in zip(kf, kg):
        if a == b:
            continue
        if not np.isfinite(a - b) or abs(a - b) > TAIL_KEY_TOL * max(abs(a), abs(b)):
            return Relation.FIRST_STRICT if a > b else Relation.SECOND_STRICT
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


def compare_extended(f, g, k_max=DEFAULT_K_MAX):
    """Preference between distributions with unbounded upper tails.

    Tail keys decide: the lighter tail is preferred.  Keys that agree are
    equivalent if the survival functions agree over the bulk too, and
    incomparable if not.  Two lattices, which have no key, compare their
    restrictions to integer windows on a ladder of survival quantiles and
    require a unanimous direction; ladder disagreement means the pair is
    incomparable.  Any other pair without two keys raises ``NoDensity``.
    """
    kf, kg = f.tail_key(), g.tail_key()
    if kf is not None and kg is not None:
        relation = _tail_relation(kf, kg)
        if relation is not None:
            return PreferenceVerdict(relation, decided_by="TailAsymptotics")
        # a key holds only the leading terms of -log sf: a tie stands for
        # equivalence only where the survivals agree over the bulk as well
        _, _, sf, sg, viol = _search_grid(f, g)
        differ = viol.any() or _violated(sg, sf).any()
        return PreferenceVerdict(
            Relation.INCOMPARABLE if differ else Relation.EQUIVALENT,
            decided_by="TailAsymptotics",
            caveat=f"the tail keys agree to {TAIL_KEY_TOL:g} in every term"
            + (", but the survival functions differ" if differ else ""),
        )
    if not (kf is None and kg is None and f.is_discrete and g.is_discrete):
        lacking = " and ".join(
            f"the {side} ({type(d).__name__})"
            for side, d, key in (("first", f, kf), ("second", g, kg))
            if key is None
        )
        raise NoDensity(
            f"{lacking} has no tail_key(); an unbounded pair needs two tail "
            "keys or two lattices"
        )
    # each quantile point and its integer successor: adjacent windows expose
    # alternating (parity-dependent) preferences, which the points alone miss
    points = {int(np.floor(max(_isf(f, eps), _isf(g, eps)))) for eps in LADDER_LEVELS}
    ends = sorted({q for p in points for q in (p, p + 1)})
    pairs = [(f.truncated(1, p), g.truncated(1, p)) for p in ends]
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


def compare_kdes(k1, k2):
    """Preference between two KDEs following the effective-bound rule.

    If the effective upper bounds differ, the estimate whose mass ends lower
    is preferred outright.  Otherwise both are truncated at the common bound
    and the derivative-lexicographic comparison decides.
    """
    e1 = k1.effective_upper_bound()
    e2 = k2.effective_upper_bound()
    scale = max(abs(e1), abs(e2), 1.0)
    if abs(e1 - e2) > 1e-9 * scale:
        relation = Relation.FIRST_STRICT if e1 < e2 else Relation.SECOND_STRICT
        return PreferenceVerdict(relation, decided_by="EffectiveBound")
    return compare_smooth(truncate(k1, 1.0, e1), truncate(k2, 1.0, e1))


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
    compact support, tail keys (or, for two lattices, the truncation ladder)
    for two unbounded tails, and the moment-sequence scan for everything else.
    """
    if isinstance(d1, PointMass):
        return compare_point_mass(d1, d2)
    if isinstance(d2, PointMass):
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
    values = np.union1d(pref.descending_pmf()[0], other.descending_pmf()[0])  # ascending
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


def _violated(sp, so):
    """Where the preferred survival sp exceeds the other's, so, by more than
    the relative slack; with no absolute floor, tiny survivals still count."""
    return sp - so > SURVIVAL_REL * np.maximum(sp, so)


def _log_violated(lp, lo):
    """``_violated`` on log survivals (False where both are -inf)."""
    with np.errstate(invalid="ignore"):
        return lp - lo > _LOG_SURVIVAL_REL


def _search_grid(pref, other, far=False):
    """Points, survivals and dominance violations of the x0 search: a linear
    grid over the bulk, ending at the larger isf(1e-9) of two unbounded
    tails; with ``far``, the search goes on in log survivals over a
    geometric grid out to ``ISF_CAP``."""
    lowers = [d.support.lower for d in (pref, other) if np.isfinite(d.support.lower)]
    lo = max(1.0, min(lowers, default=1.0))
    uppers = [d.support.upper for d in (pref, other)]
    if all(np.isfinite(u) for u in uppers):
        hi = max(uppers)
    else:
        hi = max(_isf(pref, 1e-9), _isf(other, 1e-9))
    xs = np.linspace(lo, hi, GRID_SIZE)
    sp = np.asarray(pref.sf(xs), dtype=float)
    so = np.asarray(other.sf(xs), dtype=float)
    viol = _violated(sp, so)
    if far and hi < ISF_CAP:
        tail = np.geomspace(hi, ISF_CAP, FAR_GRID_SIZE)[1:]
        lsp, lso = pref.logsf(tail), other.logsf(tail)
        seen = (lsp > -np.inf) | (lso > -np.inf)
        tail = tail[seen]
        xs = np.concatenate([xs, tail])
        sp = np.concatenate([sp, np.asarray(pref.sf(tail), dtype=float)])
        so = np.concatenate([so, np.asarray(other.sf(tail), dtype=float)])
        viol = np.concatenate([viol, _log_violated(lsp[seen], lso[seen])])
    return lo, xs, sp, so, viol


def _continuous_threshold(pref, other, first, second, far=False):
    """x0 just above the last violation on the ``_search_grid``."""
    lo, xs, sp, so, viol = _search_grid(pref, other, far)
    if not viol.any():
        x0 = lo
        start = 0
    else:
        last = int(np.max(np.nonzero(viol)))
        if last == len(xs) - 1:
            raise ThresholdNotFound(
                "survival dominance never holds up to the support maximum"
            )
        if far:
            # x0 at the crossing itself, which the log survivals resolve
            def violated(x):
                return float(pref.logsf(x)) > float(other.logsf(x))
        else:
            def violated(x):
                return _violated(float(pref.sf(x)), float(other.sf(x)))

        x0 = bisect(violated, xs[last], xs[last + 1], 80)[1]
        start = last + 1
    # certificate rows reuse the search pass: only x0 is a new point
    points = np.concatenate([[x0], xs[start:]])
    sp = np.concatenate([np.asarray(pref.sf(points[:1]), dtype=float), sp[start:]])
    so = np.concatenate([np.asarray(other.sf(points[:1]), dtype=float), so[start:]])
    s1 = sp if pref is first else so
    s2 = so if pref is first else sp
    if np.any(_violated(sp, so)):
        raise ThresholdNotFound("verification grid rejects the candidate threshold")
    grid = tuple(zip(points.tolist(), s1.tolist(), s2.tolist()))
    return TailThreshold(float(x0), grid)


def tail_threshold(d1, d2, verdict):
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
        return _continuous_threshold(prefs, others, d1s, d2s)
    if verdict.decided_by == "SupportBound":
        hi = other.support.upper
        if not np.isfinite(hi):
            hi = max(pref.support.upper, _isf(other, 1e-9))
        # a bound at or beyond the other's isf(1e-9) leaves one distinct row
        xs = np.unique(np.linspace(pref.support.upper, hi, 64))
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
    far = verdict.decided_by == "TailAsymptotics"
    return _continuous_threshold(pref, other, d1, d2, far)
