from collections import Counter, deque

import numpy as np
import pytest

from lossorder.errors import InvalidConfig
from lossorder.ordering import Relation, compare
from lossorder.simulate import (
    Graph,
    OutbreakConfig,
    simulate_outbreaks,
)


class TestGraph:
    def test_complete(self):
        g = Graph.complete(5)
        assert g.n_nodes == 5
        assert len(g.edges) == 10

    def test_duplicate_edges_collapsed(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert len(g.edges) == 2

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            Graph(3, [(0, 3)])
        with pytest.raises(InvalidConfig):
            Graph(3, [(1, 1)])
        with pytest.raises(InvalidConfig):
            Graph(0, [])

    def test_erdos_renyi_reproducible(self):
        g1 = Graph.erdos_renyi(10, 0.3, seed=42)
        g2 = Graph.erdos_renyi(10, 0.3, seed=42)
        assert g1 == g2
        assert Graph.erdos_renyi(10, 0.3, seed=43) != g1

    def test_from_edge_list(self):
        g = Graph.from_edge_list([("0", "1"), ("1", "4")])
        assert g.n_nodes == 5
        assert g.edges == ((0, 1), (1, 4))
        with pytest.raises(InvalidConfig):
            Graph.from_edge_list([])


class TestConfig:
    def test_validation(self):
        g = Graph.complete(4)
        with pytest.raises(InvalidConfig):
            OutbreakConfig(g, transmission=1.5)
        with pytest.raises(InvalidConfig):
            OutbreakConfig(g, transmission=0.5, initial_node=9)
        with pytest.raises(InvalidConfig):
            OutbreakConfig(g, transmission=0.5, n_runs=0)


class TestSimulation:
    def test_no_transmission_gives_singletons(self):
        cfg = OutbreakConfig(Graph.complete(6), transmission=0.0, n_runs=100)
        h = simulate_outbreaks(cfg)
        assert h.sizes == (1,)
        assert h.counts == (100,)

    def test_full_transmission_infects_everyone(self):
        cfg = OutbreakConfig(Graph.complete(6), transmission=1.0, n_runs=50)
        h = simulate_outbreaks(cfg)
        assert h.sizes == (6,)
        assert h.counts == (50,)

    def test_disconnected_component_bounds_outbreak(self):
        # two triangles, no bridge: outbreak can never exceed 3
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        cfg = OutbreakConfig(g, transmission=1.0, n_runs=40, initial_node=0)
        h = simulate_outbreaks(cfg)
        assert h.sizes == (3,)

    def test_conservation(self):
        cfg = OutbreakConfig(Graph.complete(8), transmission=0.3, n_runs=500, seed=5)
        h = simulate_outbreaks(cfg)
        assert h.total == 500

    def test_determinism(self):
        cfg = OutbreakConfig(Graph.complete(8), transmission=0.4, n_runs=200, seed=11)
        assert simulate_outbreaks(cfg) == simulate_outbreaks(cfg)

    def test_seed_changes_outcome(self):
        g = Graph.complete(8)
        h1 = simulate_outbreaks(OutbreakConfig(g, 0.3, n_runs=200, seed=1))
        h2 = simulate_outbreaks(OutbreakConfig(g, 0.3, n_runs=200, seed=2))
        assert (h1.sizes, h1.counts) != (h2.sizes, h2.counts)

    def test_mean_size_monotone_in_transmission(self):
        g = Graph.complete(10)
        means = []
        for p in (0.1, 0.3, 0.5, 0.9):
            cfg = OutbreakConfig(g, p, n_runs=10_000, seed=3)
            h = simulate_outbreaks(cfg)
            means.append(
                sum(s * c for s, c in zip(h.sizes, h.counts)) / h.total
            )
        # allow a whisker of Monte-Carlo noise
        assert all(b >= a - 0.05 for a, b in zip(means, means[1:]))


class TestToDistribution:
    def test_normalization(self):
        cfg = OutbreakConfig(Graph.complete(6), transmission=0.3, n_runs=300, seed=2)
        d = simulate_outbreaks(cfg).to_distribution()
        assert sum(d.probs) == pytest.approx(1.0)
        assert d.total == 300

    def test_single_bin(self):
        cfg = OutbreakConfig(Graph.complete(4), transmission=0.0, n_runs=10)
        d = simulate_outbreaks(cfg).to_distribution()
        assert d.probs == pytest.approx((1.0,))


def test_histograms_feed_the_ordering():
    # higher transmission should be dispreferred between two simulated runs
    g = Graph.complete(20)
    lo = simulate_outbreaks(OutbreakConfig(g, 0.12, n_runs=1000, seed=9))
    hi = simulate_outbreaks(OutbreakConfig(g, 0.15, n_runs=1000, seed=9))
    v = compare(lo.to_distribution(), hi.to_distribution())
    assert v.relation is Relation.FIRST_STRICT


def _bfs_histogram(config):
    """Reference simulator: replays the documented per-run streams (edge
    coin-flips, then the start node, from default_rng([seed, run])) and
    measures each outbreak by breadth-first search."""
    graph = config.graph
    sizes = Counter()
    for run in range(config.n_runs):
        rng = np.random.default_rng([config.seed, run])
        kept = rng.random(len(graph.edges)) < config.transmission
        if config.initial_node is None:
            start = int(rng.integers(graph.n_nodes))
        else:
            start = config.initial_node
        neighbours = {i: [] for i in range(graph.n_nodes)}
        for (u, v), k in zip(graph.edges, kept):
            if k:
                neighbours[u].append(v)
                neighbours[v].append(u)
        seen, queue = {start}, deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sizes[len(seen)] += 1
    keys = tuple(sorted(sizes))
    return keys, tuple(sizes[s] for s in keys)


BFS_CASES = {
    "complete:20 p=0.1": OutbreakConfig(Graph.complete(20), 0.1, n_runs=300, seed=7),
    "complete:20 p=0.3": OutbreakConfig(Graph.complete(20), 0.3, n_runs=300, seed=8),
    "erdos_renyi": OutbreakConfig(Graph.erdos_renyi(60, 0.08, seed=3), 0.4, n_runs=300, seed=2),
    "disconnected edge list": OutbreakConfig(
        Graph.from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (7, 8)]),
        0.7,
        n_runs=300,
        seed=5,
    ),
    "fixed initial node": OutbreakConfig(
        Graph.complete(20), 0.12, initial_node=13, n_runs=300, seed=4
    ),
    "p=0": OutbreakConfig(Graph.erdos_renyi(30, 0.2, seed=1), 0.0, n_runs=50, seed=6),
    "p=1": OutbreakConfig(
        Graph.from_edge_list([(0, 1), (2, 3), (3, 4), (6, 7)]), 1.0, n_runs=50, seed=6
    ),
}


@pytest.mark.parametrize("name", BFS_CASES)
def test_matches_breadth_first_reference(name):
    config = BFS_CASES[name]
    h = simulate_outbreaks(config)
    assert (h.sizes, h.counts) == _bfs_histogram(config)
