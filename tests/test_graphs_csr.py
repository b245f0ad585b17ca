"""CSR packing, digests, and the lazy construction caches of
:mod:`repro.graphs.base`."""

import numpy as np
import pytest

from repro.graphs import (
    GraphCSR,
    PortLabeledGraph,
    clique,
    grid_2d,
    hypercube,
    lollipop,
    path_graph,
    ring_graph,
    star,
    torus_2d,
)
from repro.graphs import base
from repro.graphs.random_graphs import (
    gnp_random_graph,
    random_regular_graph,
    shuffled_ports,
)


def _bfs_diameter(graph):
    """The reference: one Python BFS per source."""
    return max(graph.eccentricity(v) for v in range(graph.num_nodes))


#: Every family at small sizes, the random graphs, and shapes with
#: long tails, odd cycles and word-boundary node counts (64, 65).
DIAMETER_GRAPHS = {
    "ring-3": lambda: ring_graph(3),
    "ring-64": lambda: ring_graph(64),
    "ring-65": lambda: ring_graph(65),
    "path-2": lambda: path_graph(2),
    "path-130": lambda: path_graph(130),
    "star": lambda: star(70),
    "clique": lambda: clique(9),
    "grid": lambda: grid_2d(6, 9),
    "torus": lambda: torus_2d(7, 11),
    "hypercube": lambda: hypercube(7),
    "lollipop": lambda: lollipop(6, 40),
    "random-4-regular": lambda: random_regular_graph(200, 4, seed=97),
    "random-3-regular": lambda: random_regular_graph(30, 3, seed=1),
    "gnp": lambda: gnp_random_graph(150, 0.05, seed=101),
    "shuffled-torus": lambda: shuffled_ports(torus_2d(5, 6), seed=3),
    # A 41-node path labeled outward from its middle: node 0 is the
    # center, odd nodes run one way and even nodes the other, so only
    # sources of high label reach the diameter.
    "path-from-middle": lambda: PortLabeledGraph.from_edges(
        41, [(0, 1), (0, 2)] + [(v, v + 2) for v in range(1, 39)]
    ),
}


class TestGraphCSR:
    def test_round_trip_preserves_port_order(self):
        for graph in (
            torus_2d(4, 5),
            hypercube(4),
            clique(7),
            star(6),
            lollipop(4, 3),
            path_graph(9),
            shuffled_ports(torus_2d(3, 4), seed=3),
        ):
            csr = graph.to_csr()
            assert csr.num_nodes == graph.num_nodes
            assert csr.num_arcs == graph.num_arcs
            assert csr.to_ports() == graph.port_lists()
            # Arc (v, port) is CSR row indptr[v] + port.
            for v in range(graph.num_nodes):
                row = csr.neighbors[csr.indptr[v]:csr.indptr[v + 1]]
                assert tuple(int(u) for u in row) == graph.neighbors(v)
                assert int(csr.deg[v]) == graph.degree(v)

    def test_arrays_are_immutable(self):
        csr = hypercube(3).to_csr()
        for array in (csr.indptr, csr.neighbors, csr.deg):
            with pytest.raises(ValueError):
                array[0] = 99

    def test_digest_is_content_addressed(self):
        # Same structure from different factories: one digest.
        a = torus_2d(3, 4).to_csr()
        b = torus_2d(3, 4).to_csr()
        assert a is not b
        assert a.digest == b.digest
        # Port order is part of the content.
        shuffled = shuffled_ports(torus_2d(3, 4), seed=1).to_csr()
        assert shuffled.digest != a.digest
        assert hypercube(4).to_csr().digest != a.digest

    def test_from_ports_matches_graph_packing(self):
        graph = lollipop(5, 4)
        direct = GraphCSR.from_ports(graph.port_lists())
        assert direct.digest == graph.to_csr().digest

    def test_to_csr_is_cached(self):
        graph = hypercube(4)
        assert graph.to_csr() is graph.to_csr()


class TestBitsetDiameter:
    """``PortLabeledGraph.diameter`` against n Python BFS runs."""

    @pytest.mark.parametrize("name", sorted(DIAMETER_GRAPHS))
    def test_matches_bfs(self, name):
        graph = DIAMETER_GRAPHS[name]()
        assert graph.diameter() == _bfs_diameter(graph)

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    def test_general_speedup_graphs_match_bfs(self, quick):
        from repro.sweep.registry import scenario

        for _, graph in scenario("general_speedup", quick=quick).graphs:
            fresh = PortLabeledGraph(graph.port_lists())
            assert fresh.diameter() == _bfs_diameter(fresh)

    def test_full_size_speedup_families_pinned(self):
        # The Python BFS's values on speedup_graphs' full-size graphs
        # (2 s of BFS; the bitset search takes about 50 ms).
        from repro.experiments.speedup_graphs import default_families

        diameters = {
            name: factory().diameter()
            for name, factory in default_families().items()
        }
        assert diameters == {
            "torus": 32, "hypercube": 10, "clique": 1,
            "random-4-regular": 9, "lollipop": 81, "gnp": 6,
        }

    @pytest.mark.parametrize("sources", [1, 5, 64])
    def test_source_blocks(self, monkeypatch, sources):
        monkeypatch.setattr(base, "DIAMETER_SOURCES", sources)
        for name in ("ring-65", "lollipop", "torus", "path-from-middle"):
            graph = DIAMETER_GRAPHS[name]()
            assert graph.diameter() == _bfs_diameter(graph)

    def test_single_node(self):
        graph = PortLabeledGraph([[]])
        assert graph.diameter() == _bfs_diameter(graph) == 0

    @pytest.mark.parametrize(
        "ports",
        [[[1], [0], [3], [2]], [[1], [0], []], [[1, 2], [0, 2], [0, 1], []]],
        ids=["two-edges", "isolated-node", "triangle-and-node"],
    )
    def test_disconnected_raises_like_bfs(self, ports):
        graph = PortLabeledGraph(ports)
        with pytest.raises(ValueError, match="not connected"):
            _bfs_diameter(graph)
        with pytest.raises(ValueError, match="not connected"):
            graph.diameter()


class TestLazyConstructionCaches:
    def test_construction_builds_no_port_index(self):
        # Regression: the reverse-lookup dicts (one per node, O(m)
        # Python objects) used to be built eagerly on every
        # construction.  An n=50k graph must construct without any.
        graph = ring_graph(50_000)
        assert graph._port_index_cache is None

    def test_port_index_built_on_first_reverse_lookup(self):
        graph = torus_2d(3, 3)
        assert graph._port_index_cache is None
        assert graph.port_to(0, 1) == 0
        assert graph._port_index_cache is not None
        # has_edge uses the same cache.
        assert graph.has_edge(0, 1)

    def test_reverse_lookup_still_correct(self):
        graph = shuffled_ports(lollipop(5, 3), seed=2)
        for v in range(graph.num_nodes):
            for i, u in enumerate(graph.neighbors(v)):
                assert graph.port_to(v, u) == i
        with pytest.raises(ValueError):
            graph.port_to(0, graph.num_nodes - 1)

    def test_validation_unaffected_by_lazy_index(self):
        with pytest.raises(ValueError, match="asymmetric"):
            PortLabeledGraph([(1,), (0,), (1,)])

    def test_diameter_cached_and_exact(self):
        graph = torus_2d(3, 5)
        first = graph.diameter()
        assert first == max(
            graph.eccentricity(v) for v in range(graph.num_nodes)
        )
        assert graph._diameter_cache == first
        assert graph.diameter() == first

    def test_gnp_csr_round_trip(self):
        graph = gnp_random_graph(40, 0.2, seed=9)
        assert graph.to_csr().to_ports() == graph.port_lists()
