"""Tests for seeded random graph generators."""

import hashlib
import json

import pytest

from repro.graphs.base import PortLabeledGraph
from repro.graphs.random_graphs import (
    gnp_random_graph,
    random_regular_graph,
    shuffled_ports,
)
from repro.graphs.ring import ring_graph
from repro.util.rng import make_rng


class TestGnp:
    def test_deterministic_per_seed(self):
        a = gnp_random_graph(30, 0.3, seed=5)
        b = gnp_random_graph(30, 0.3, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(30, 0.3, seed=1)
        b = gnp_random_graph(30, 0.3, seed=2)
        assert a != b

    def test_connected_by_default(self):
        g = gnp_random_graph(40, 0.25, seed=0)
        assert g.is_connected()

    def test_p_one_is_clique(self):
        g = gnp_random_graph(8, 1.0, seed=0)
        assert g.num_edges == 28

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gnp_random_graph(10, 1.5)

    def test_impossible_connectivity_raises(self):
        with pytest.raises(RuntimeError):
            gnp_random_graph(20, 0.0, seed=0, require_connected=True)


class TestRandomRegular:
    def test_regularity(self):
        g = random_regular_graph(20, 4, seed=3)
        assert all(g.degree(v) == 4 for v in range(20))

    def test_connected(self):
        assert random_regular_graph(30, 3, seed=1).is_connected()

    def test_deterministic(self):
        assert random_regular_graph(16, 4, seed=9) == random_regular_graph(
            16, 4, seed=9
        )

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4)
        with pytest.raises(ValueError):
            random_regular_graph(4, 0)

    def test_matches_networkx_sampler(self):
        # Same seeds, same edge sets as networkx's Steger-Wormald
        # sampler under the same connectivity retry.  On the dense
        # shapes, networkx's quirk in ``_suitable`` decides samples.
        nx = pytest.importorskip("networkx")
        for n, degree in [(8, 3), (10, 7), (12, 7), (15, 4), (31, 6)]:
            for seed in range(4):
                rng = make_rng(seed)
                while True:
                    sample = nx.random_regular_graph(
                        degree, n, seed=int(rng.integers(0, 2 ** 31 - 1))
                    )
                    expected = PortLabeledGraph.from_edges(n, sample.edges())
                    if expected.is_connected():
                        break
                assert random_regular_graph(n, degree, seed) == expected

    def test_speedup_graphs_family_edges_pinned(self):
        # The full-size random-4-regular family of speedup_graphs.
        edges = sorted(random_regular_graph(1024, 4, seed=97).edges())
        digest = hashlib.sha256(json.dumps(edges).encode()).hexdigest()
        assert digest == (
            "abc85a149f0f798b553eb9af5210a5874b9108d7bb4c9f17f79e15aef1ccaee1"
        )


class TestShuffledPorts:
    def test_same_edge_set(self):
        g = ring_graph(12)
        s = shuffled_ports(g, seed=7)
        assert sorted(s.edges()) == sorted(g.edges())

    def test_deterministic(self):
        g = random_regular_graph(12, 4, seed=0)
        assert shuffled_ports(g, seed=1) == shuffled_ports(g, seed=1)

    def test_actually_shuffles_high_degree(self):
        g = random_regular_graph(16, 6, seed=0)
        s = shuffled_ports(g, seed=2)
        assert any(
            g.neighbors(v) != s.neighbors(v) for v in range(g.num_nodes)
        )
