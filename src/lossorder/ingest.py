"""Parsing of external data files into distribution objects.

Three delimited-text layouts are supported: per-expert rating records, read
as raw scores per group or coarsened onto an ordered category scale,
bin/count tables with one column per configuration, and plain numeric
series (optionally split into two groups).  A small JSON interchange format
round-trips five kinds of distribution object: categorical, histogram, point
mass, parametric and KDE.
"""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import (
    CategoricalDistribution,
    HistogramDistribution,
    ParametricDistribution,
    PointMass,
)
from .errors import (
    EmptyData,
    JsonFormError,
    RangeError,
    RowError,
    ScaleViolation,
)
from .kde import KernelDensityEstimate, silverman_bandwidth

__all__ = [
    "ScaleSpec",
    "parse_scores",
    "parse_ratings",
    "parse_counts",
    "parse_series",
    "to_json",
    "from_json",
]


@dataclass(frozen=True)
class ScaleSpec:
    """Ordered category scale with numeric ranks and score intervals.

    Categories are listed in descending severity order; ``intervals[i]`` is
    the half-open score window [lo, hi) mapped to category i (the last
    interval is closed at its right end so the scale maximum is assignable).
    """

    labels: tuple
    ranks: tuple
    intervals: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        ranks = tuple(float(r) for r in self.ranks)
        intervals = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "intervals", intervals)
        if not (len(labels) == len(ranks) == len(intervals)):
            raise ValueError("labels, ranks and intervals must have equal length")
        if any(a <= b for a, b in zip(ranks, ranks[1:])):
            raise ValueError("ranks must be strictly descending")
        spans = sorted(intervals)
        if any(b1 > a2 for (_, b1), (a2, _) in zip(spans, spans[1:])):
            raise ValueError("score intervals overlap")

    @classmethod
    def cvss(cls):
        """The low/medium/high coarsening of the 0-10 CVSS scale.

        Scores in [0,3) are low, [3,8) medium, [8,10] high; medium absorbs
        the otherwise-unassigned [3,4) band.
        """
        return cls(
            labels=("H", "M", "L"),
            ranks=(3.0, 2.0, 1.0),
            intervals=((8.0, 10.0), (3.0, 8.0), (0.0, 3.0)),
        )

    @property
    def upper(self):
        return max(b for _, b in self.intervals)

    def categorize(self, score):
        """Category label for a numeric score."""
        score = float(score)
        for label, (a, b) in zip(self.labels, self.intervals):
            if a <= score < b or (score == b == self.upper):
                return label
        raise ScaleViolation(f"score {score} falls outside the scale")


def _as_text(data):
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _reader(data):
    return csv.reader(io.StringIO(_as_text(data)))


def parse_scores(data, group_by="scenario"):
    """Parse rating records into the raw scores of each group.

    The input needs a header naming at least a score column (``cvss`` or
    ``score``, in any case) and the grouping column.  Returns a dict mapping
    each group key to its scores, in file order.
    """
    rows = _reader(data)
    try:
        header = [h.strip().lower() for h in next(rows)]
    except StopIteration:
        raise EmptyData("rating file is empty")
    try:
        group_col = header.index(group_by.lower())
    except ValueError:
        raise RowError(f"missing column {group_by!r}", line=1)
    score_col = None
    for name in ("cvss", "score"):
        if name in header:
            score_col = header.index(name)
            break
    if score_col is None:
        raise RowError("missing a 'cvss' or 'score' column", line=1)
    groups = {}
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(group_col, score_col):
            raise RowError("too few fields", line=lineno)
        key = row[group_col].strip()
        try:
            score = float(row[score_col])
        except ValueError:
            raise RowError(f"unparseable score {row[score_col]!r}", line=lineno)
        groups.setdefault(key, []).append(score)
    if not groups:
        raise EmptyData("rating file has no data rows")
    return groups


def parse_ratings(data, scale, group_by="scenario"):
    """Parse rating records (as ``parse_scores``) and coarsen each group onto
    the category scale.  Returns a dict mapping each group key to a
    CategoricalDistribution on the scale's categories.
    """
    out = {}
    for key, scores in parse_scores(data, group_by).items():
        counts = Counter(scale.categorize(score) for score in scores)
        out[key] = CategoricalDistribution(
            labels=scale.labels,
            ranks=scale.ranks,
            probs=tuple(counts[l] / len(scores) for l in scale.labels),
        )
    return out


def parse_counts(data):
    """Parse a bin/count table into one HistogramDistribution per column.

    The first column holds the bin values; every further column is a count
    series named by its header.  All-zero columns are skipped.
    """
    rows = _reader(data)
    try:
        header = [h.strip() for h in next(rows)]
    except StopIteration:
        raise EmptyData("count file is empty")
    if len(header) < 2:
        raise RowError("need a bin column and at least one count column", line=1)
    values = []
    columns = [[] for _ in header[1:]]
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            values.append(float(row[0]))
        except ValueError:
            raise RowError(f"unparseable bin value {row[0]!r}", line=lineno)
        for j, cell in enumerate(row[1:]):
            try:
                c = int(cell)
            except ValueError:
                raise RowError(f"unparseable count {cell!r}", line=lineno)
            if c < 0:
                raise RowError(f"negative count {c}", line=lineno)
            columns[j].append(c)
    if not values:
        raise EmptyData("count file has no data rows")
    out = {}
    for name, counts in zip(header[1:], columns):
        if sum(counts) == 0:
            continue
        pairs = [(v, c) for v, c in zip(values, counts) if c > 0]
        out[name] = HistogramDistribution(
            tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        )
    if not out:
        raise EmptyData("all count columns are zero")
    return out


def parse_series(data, split=None):
    """Parse a single numeric column, optionally split at an index.

    Returns the full list, or (first ``split`` values, remainder) when a
    split index is given.  A one-line header is tolerated.
    """
    rows = _reader(data)
    values = []
    for lineno, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        cell = row[0].strip()
        try:
            values.append(float(cell))
        except ValueError:
            if lineno == 1:  # header line
                continue
            raise RowError(f"non-numeric entry {cell!r}", line=lineno)
    if not values:
        raise EmptyData("series file has no numeric data")
    if split is None:
        return values
    split = int(split)
    if not 0 < split < len(values):
        raise RangeError(
            f"split index {split} outside (0, {len(values)})"
        )
    return values[:split], values[split:]


def _support_list(d):
    lo, hi = d.support.lower, d.support.upper
    return [float(lo), float(hi)]


def to_json(d):
    """Serialize a distribution to the JSON interchange form."""
    if isinstance(d, CategoricalDistribution):
        doc = {
            "kind": "categorical",
            "support": {"labels": list(d.labels), "ranks": list(d.ranks)},
            "pmf": list(d.probs),
        }
    elif isinstance(d, HistogramDistribution):
        doc = {
            "kind": "histogram",
            "support": list(d.bin_values),
            "pmf": list(np.asarray(d.probs)),
            "total": d.total,
        }
    elif isinstance(d, PointMass):
        doc = {
            "kind": "point_mass",
            "support": _support_list(d),
            "parameters": {"value": d.value},
        }
    elif isinstance(d, ParametricDistribution):
        doc = {
            "kind": "parametric",
            "support": _support_list(d),
            "parameters": {"family": d.family, "a": d.a, "b": d.b},
        }
    elif isinstance(d, KernelDensityEstimate):
        doc = {
            "kind": "samples",
            "support": [min(d.samples), max(d.samples)],
            "samples": list(d.samples),
            "bandwidth": d.bandwidth,
        }
    else:
        raise JsonFormError(f"{type(d).__name__} has no JSON form")
    return json.dumps(doc)


def from_json(text):
    """Inverse of to_json; ``JsonFormError`` on a document that is not JSON,
    has no known kind, or lacks a field or holds one of the wrong type."""
    try:
        doc = json.loads(_as_text(text))
        kind = doc["kind"]
        if kind == "categorical":
            return CategoricalDistribution(
                labels=tuple(doc["support"]["labels"]),
                ranks=tuple(doc["support"]["ranks"]),
                probs=tuple(doc["pmf"]),
            )
        if kind == "histogram":
            total = doc["total"]
            counts = tuple(int(round(p * total)) for p in doc["pmf"])
            return HistogramDistribution(tuple(doc["support"]), counts)
        if kind == "point_mass":
            return PointMass(doc["parameters"]["value"])
        if kind == "parametric":
            p = doc["parameters"]
            return ParametricDistribution(p["family"], p["a"], p["b"])
        if kind == "samples":
            samples = tuple(doc["samples"])
            h = doc.get("bandwidth") or silverman_bandwidth(samples)
            return KernelDensityEstimate(samples, h)
    except (KeyError, TypeError, ValueError) as exc:
        raise JsonFormError(f"not a distribution's JSON form: {exc!r}") from exc
    raise JsonFormError(f"unknown distribution kind {kind!r}")
