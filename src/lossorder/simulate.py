"""Outbreak-size simulation on contact graphs.

Each run performs bond percolation: every edge of the contact graph is kept
independently with the transmission probability, and the outbreak size is
the size of the initially infected node's component over the kept edges,
found by numpy min-label propagation.  Repeated runs give an outbreak-size
histogram, which plugs straight into the preference ordering as a loss
distribution (size >= 1 always, since the initial node is infected).
"""

from dataclasses import dataclass, field

import numpy as np

from .distributions import HistogramDistribution
from .errors import InvalidConfig

__all__ = [
    "Graph",
    "OutbreakConfig",
    "OutbreakHistogram",
    "simulate_outbreaks",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1."""

    n_nodes: int
    edges: tuple

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidConfig("graph needs at least one node")
        seen = set()
        cleaned = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise InvalidConfig(f"edge ({u}, {v}) references a missing node")
            if u == v:
                raise InvalidConfig(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(key)
        object.__setattr__(self, "edges", tuple(cleaned))

    @classmethod
    def complete(cls, n):
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def erdos_renyi(cls, n, p, seed=0):
        """G(n, p) random graph with a reproducible edge draw."""
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < p
        return cls(n, tuple(e for e, k in zip(pairs, keep) if k))

    @classmethod
    def from_edge_list(cls, rows):
        """Build a graph from (u, v) pairs; node count is 1 + max index."""
        edges = [(int(u), int(v)) for u, v in rows]
        if not edges:
            raise InvalidConfig("empty edge list")
        n = 1 + max(max(u, v) for u, v in edges)
        return cls(n, tuple(edges))


@dataclass(frozen=True)
class OutbreakConfig:
    """One simulation scenario: a graph, a transmission probability, the
    initially infected node (None = uniform-random per run), and the number
    of runs."""

    graph: Graph
    transmission: float
    initial_node: int | None = None
    n_runs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise InvalidConfig(
                f"transmission probability {self.transmission} outside [0, 1]"
            )
        if self.initial_node is not None and not (
            0 <= self.initial_node < self.graph.n_nodes
        ):
            raise InvalidConfig(f"initial node {self.initial_node} not in graph")
        if self.n_runs < 1:
            raise InvalidConfig("need at least one run")


@dataclass(frozen=True)
class OutbreakHistogram:
    """Outbreak-size counts from a batch of simulation runs."""

    sizes: tuple
    counts: tuple
    config: OutbreakConfig = field(compare=False, default=None)

    @property
    def total(self):
        return sum(self.counts)

    def to_distribution(self):
        """Histogram loss distribution over the observed outbreak sizes."""
        pairs = [(s, c) for s, c in zip(self.sizes, self.counts) if c > 0]
        return HistogramDistribution(
            tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        )


def _component_size(n, u, v, node):
    """Size of ``node``'s component in the graph on n nodes with edges
    (u[i], v[i]): every node takes the least label across its edges, then
    the label of its label, until nothing changes."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, u, label[v])
        np.minimum.at(new, v, label[u])
        new = new[new]
        if np.array_equal(new, label):
            return int(np.count_nonzero(label == label[node]))
        label = new


def simulate_outbreaks(config):
    """Run the percolation simulation and histogram the outbreak sizes.

    Runs are independent: run ``i`` draws its edge coin-flips from a fresh
    generator seeded with (config.seed, i), so any prefix of the run sequence
    is reproducible regardless of batch size.
    """
    n = config.graph.n_nodes
    edges = np.array(config.graph.edges, dtype=np.intp).reshape(-1, 2)
    counter = {}
    for run in range(config.n_runs):
        rng = np.random.default_rng([config.seed, run])
        kept = rng.random(len(edges)) < config.transmission
        start = int(rng.integers(n)) if config.initial_node is None else config.initial_node
        size = _component_size(n, *edges[kept].T, start)
        counter[size] = counter.get(size, 0) + 1
    sizes = tuple(sorted(counter))
    return OutbreakHistogram(
        sizes=sizes,
        counts=tuple(counter[s] for s in sizes),
        config=config,
    )
