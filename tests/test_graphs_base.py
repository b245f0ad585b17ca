"""Tests for the port-labeled graph substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.base import PortLabeledGraph
from repro.graphs.families import grid_2d, path_graph
from repro.graphs.ring import ring_graph


class TestConstruction:
    def test_triangle(self):
        g = PortLabeledGraph([[1, 2], [0, 2], [0, 1]])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_arcs == 6

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            PortLabeledGraph([[0, 1], [0]])

    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            PortLabeledGraph([[1, 1], [0, 0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            PortLabeledGraph([[1], []])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            PortLabeledGraph([[5]])

    def test_from_edges_sorted_ports(self):
        g = PortLabeledGraph.from_edges(4, [(0, 3), (0, 1), (1, 2), (2, 3)])
        assert g.neighbors(0) == (1, 3)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PortLabeledGraph.from_edges(2, [(0, 0)])


class TestAccessors:
    def test_ports_and_reverse_lookup(self):
        g = ring_graph(6)
        for v in range(6):
            for port, u in enumerate(g.neighbors(v)):
                assert g.port_target(v, port) == u
                assert g.port_to(v, u) == port

    def test_port_to_nonneighbor_raises(self):
        g = ring_graph(6)
        with pytest.raises(ValueError):
            g.port_to(0, 3)

    def test_has_edge(self):
        g = ring_graph(5)
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 4)
        assert not g.has_edge(0, 2)

    def test_arcs_count_matches(self):
        g = grid_2d(3, 4)
        assert len(list(g.arcs())) == g.num_arcs

    def test_edges_are_canonical(self):
        g = grid_2d(3, 3)
        for u, v in g.edges():
            assert u < v

    def test_len(self):
        assert len(ring_graph(9)) == 9

    def test_equality_and_hash(self):
        assert ring_graph(5) == ring_graph(5)
        assert hash(ring_graph(5)) == hash(ring_graph(5))
        assert ring_graph(5) != ring_graph(6)


class TestStructure:
    def test_connected(self):
        assert ring_graph(10).is_connected()

    def test_disconnected(self):
        g = PortLabeledGraph([[1], [0], [3], [2]])
        assert not g.is_connected()

    def test_ring_diameter(self):
        assert ring_graph(10).diameter() == 5
        assert ring_graph(11).diameter() == 5

    def test_path_diameter(self):
        assert path_graph(7).diameter() == 6

    def test_bfs_distances(self):
        g = path_graph(5)
        assert g.bfs_distances(0) == [0, 1, 2, 3, 4]

    def test_bfs_unreachable_is_minus_one(self):
        g = PortLabeledGraph([[1], [0], [3], [2]])
        assert g.bfs_distances(0)[2] == -1

    def test_eccentricity_requires_connectivity(self):
        g = PortLabeledGraph([[1], [0], [3], [2]])
        with pytest.raises(ValueError):
            g.eccentricity(0)

    @given(st.integers(3, 30))
    def test_ring_degree_sum(self, n):
        g = ring_graph(n)
        assert sum(g.degree(v) for v in range(n)) == 2 * g.num_edges
