"""Total preference ordering on loss distributions.

A decision between two uncertain losses is made by comparing moment
sequences: the option whose moments are eventually smaller is preferred.
The package provides the distribution representations, the comparison
engine with its fast special-case rules, tail thresholds certifying each
strict verdict, Gaussian KDE support for raw samples, an outbreak
simulator, file ingestion, and a CLI.
"""

from .distributions import (
    CategoricalDistribution,
    Gamma,
    Gaussian,
    Gumbel,
    HistogramDistribution,
    LatticeDistribution,
    LossDistribution,
    ParametricDistribution,
    PiecewisePolyDensity,
    PointMass,
    SupportInterval,
    TailKey,
    TruncatedDistribution,
    Weibull,
    truncate,
)
from .errors import LossOrderError
from .ingest import ScaleSpec, from_json, parse_counts, parse_ratings, parse_series, to_json
from .kde import KernelDensityEstimate, compare_kdes, fit, silverman_bandwidth
from .ordering import (
    MomentSequence,
    PreferenceVerdict,
    Relation,
    TailThreshold,
    compare,
    compare_moment_sequences,
    moment_sequence,
    tail_threshold,
)
from .simulate import Graph, OutbreakConfig, OutbreakHistogram, simulate_outbreaks

__version__ = "0.1.0"

__all__ = [
    "CategoricalDistribution",
    "Gamma",
    "Gaussian",
    "Graph",
    "Gumbel",
    "HistogramDistribution",
    "KernelDensityEstimate",
    "LatticeDistribution",
    "LossDistribution",
    "LossOrderError",
    "MomentSequence",
    "OutbreakConfig",
    "OutbreakHistogram",
    "ParametricDistribution",
    "PiecewisePolyDensity",
    "PointMass",
    "PreferenceVerdict",
    "Relation",
    "ScaleSpec",
    "SupportInterval",
    "TailKey",
    "TailThreshold",
    "TruncatedDistribution",
    "Weibull",
    "compare",
    "compare_kdes",
    "compare_moment_sequences",
    "fit",
    "from_json",
    "moment_sequence",
    "parse_counts",
    "parse_ratings",
    "parse_series",
    "silverman_bandwidth",
    "simulate_outbreaks",
    "tail_threshold",
    "to_json",
    "truncate",
]
