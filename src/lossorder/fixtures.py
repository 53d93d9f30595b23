"""Vendored benchmark datasets and reference distribution pairs.

The package ships three small data files so the reproduction workflows run
offline: a two-scenario CVSS expert-rating table, a pair of outbreak-size
histograms from a 20-node malware simulation, and the classical 100-year
Nile annual-flow series (1871-1970).
"""

from importlib import resources

import numpy as np
from scipy.special import gammaln

from .distributions import LatticeDistribution
from .ingest import ScaleSpec, parse_counts, parse_ratings, parse_scores, parse_series

__all__ = [
    "load_cvss_ratings",
    "load_cvss_scores",
    "load_outbreak_histograms",
    "load_nile",
    "poisson_like_pair",
]


def _read(name):
    return resources.files("lossorder.data").joinpath(name).read_text()


def load_cvss_ratings():
    """CVSS rating fixture coarsened to L/M/H, one distribution per scenario."""
    return parse_ratings(_read("table1.csv"), ScaleSpec.cvss())


def load_cvss_scores():
    """Raw CVSS score samples per scenario (for the KDE workflow)."""
    return parse_scores(_read("table1.csv"))


def load_outbreak_histograms():
    """Outbreak-size histograms of the two simulated network configurations."""
    return parse_counts(_read("table2.csv"))


def load_nile(split=None):
    """Nile annual-flow series; split=50 gives the 1871-1920/1921-1970 halves."""
    return parse_series(_read("nile.csv"), split=split)


def poisson_like_pair():
    """A pair of lattice distributions with no stable moment preference.

    The first puts Poisson(1) weights on the even integers, the second the
    same weights on the odd integers (shifted by one), so truncated moment
    comparisons flip direction with the parity of the truncation point and
    the pair is incomparable.
    """

    def log_even(v):
        if v < 2 or v % 2:
            return -np.inf
        # Poisson(1) at j = v / 2 >= 1, renormalised to exclude j = 0
        return -gammaln(v // 2 + 1) - 1.0 - np.log1p(-np.exp(-1.0))

    def log_odd(v):
        if v < 1 or v % 2 == 0:
            return -np.inf
        return -gammaln((v - 1) // 2 + 1) - 1.0

    return LatticeDistribution(log_even, lower=2), LatticeDistribution(log_odd, lower=1)
