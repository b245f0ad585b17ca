"""Tests for pointer initializations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pointers
from repro.core.ring import RingRotorRouter
from repro.graphs.families import grid_2d, hypercube, lollipop, torus_2d
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.ring import clockwise_distance, ring_distance, ring_graph


def _negative_oracle(n, agents, at_agents=1):
    """The O(n·k) transcription: a min over every agent at every node."""
    sources = sorted(set(agents))
    result = []
    for v in range(n):
        if v in sources:
            result.append(at_agents)
            continue
        clockwise_gap = min(clockwise_distance(n, v, a) for a in sources)
        anticlockwise_gap = min(clockwise_distance(n, a, v) for a in sources)
        result.append(+1 if clockwise_gap <= anticlockwise_gap else -1)
    return result


def _positive_oracle(n, agents, at_agents=1):
    negative = _negative_oracle(n, agents, at_agents)
    return [d if v in agents else -d for v, d in enumerate(negative)]


class TestTowardNode:
    def test_points_along_shortest_path(self):
        dirs = pointers.ring_toward_node(10, 0)
        assert dirs[1] == -1   # 1 -> 0 anticlockwise
        assert dirs[9] == 1    # 9 -> 0 clockwise
        assert dirs[5] == 1    # antipodal tie resolves clockwise

    def test_at_target_default(self):
        assert pointers.ring_toward_node(8, 3)[3] == 1
        assert pointers.ring_toward_node(8, 3, at_target=-1)[3] == -1

    def test_target_range_checked(self):
        with pytest.raises(ValueError):
            pointers.ring_toward_node(8, 8)

    @given(st.integers(4, 40), st.integers(0, 39))
    @settings(max_examples=30, deadline=None)
    def test_following_pointers_reaches_target(self, n, target):
        target %= n
        dirs = pointers.ring_toward_node(n, target)
        for start in range(n):
            v = start
            for _ in range(n):
                if v == target:
                    break
                v = (v + dirs[v]) % n
            assert v == target


class TestNegative:
    def test_first_visit_reflects(self):
        # The defining property: an agent reaching a fresh node is sent
        # straight back where it came from.
        n = 16
        agents = [0]
        dirs = pointers.ring_negative(n, agents)
        e = RingRotorRouter(n, dirs, agents)
        moves = e.step()          # 0 -> 1 (at_agents default clockwise)
        assert moves == [(0, 1, 1)]
        moves = e.step()          # first visit to 1 must bounce back
        assert moves == [(1, 0, 1)]

    def test_points_toward_nearest_agent(self):
        dirs = pointers.ring_negative(12, [0, 6])
        assert dirs[2] == -1  # nearest agent at 0, anticlockwise
        assert dirs[4] == 1   # nearest agent at 6, clockwise
        assert dirs[8] == -1
        assert dirs[10] == 1

    def test_at_agents_override(self):
        dirs = pointers.ring_negative(8, [3], at_agents=-1)
        assert dirs[3] == -1

    def test_requires_agents(self):
        with pytest.raises(ValueError):
            pointers.ring_negative(8, [])

    def test_agent_range_checked(self):
        with pytest.raises(ValueError):
            pointers.ring_negative(8, [9])

    @given(st.integers(6, 40), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_unoccupied_pointers_point_at_nearer_side(self, n, k):
        from repro.util.rng import make_rng

        rng = make_rng(n * 100 + k)
        agents = sorted(
            int(a) for a in rng.choice(n, size=min(k, n), replace=False)
        )
        dirs = pointers.ring_negative(n, agents)
        occupied = set(agents)
        for v in range(n):
            if v in occupied:
                continue
            toward = (v + dirs[v]) % n
            away = (v - dirs[v]) % n
            dist_toward = min(ring_distance(n, toward, a) for a in agents)
            dist_away = min(ring_distance(n, away, a) for a in agents)
            assert dist_toward <= dist_away


class TestNearestAgentFamilies:
    """``ring_negative``/``ring_positive`` against the O(n·k) oracle."""

    def test_match_oracle_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(3, 70))
            k = int(rng.integers(1, 2 * n + 4))  # k > n included
            if rng.random() < 0.25:
                agents = [int(rng.integers(0, n))] * k  # one stack
            else:
                agents = rng.integers(0, n, size=k).tolist()
            at_agents = int(rng.choice((1, -1)))
            assert pointers.ring_negative(
                n, agents, at_agents
            ) == _negative_oracle(n, agents, at_agents)
            assert pointers.ring_positive(
                n, agents, at_agents
            ) == _positive_oracle(n, agents, at_agents)

    def test_midway_ties_resolve_clockwise(self):
        # n = 8, agents 0 and 4: nodes 2 and 6 are 2 steps from each.
        negative = pointers.ring_negative(8, [4, 0])
        assert negative == _negative_oracle(8, [4, 0])
        assert negative[2] == negative[6] == 1

    def test_returns_python_ints(self):
        for family in (pointers.ring_negative, pointers.ring_positive):
            assert all(type(d) is int for d in family(9, [2, 5]))


class TestPositive:
    def test_mirror_of_negative_off_agents(self):
        agents = [0, 7]
        neg = pointers.ring_negative(15, agents)
        pos = pointers.ring_positive(15, agents)
        for v in range(15):
            if v in agents:
                assert pos[v] == neg[v]
            else:
                assert pos[v] == -neg[v]

    def test_first_visit_propagates(self):
        n = 16
        dirs = pointers.ring_positive(n, [0])
        e = RingRotorRouter(n, dirs, [0])
        e.step()  # 0 -> 1
        moves = e.step()
        assert moves == [(1, 2, 1)]  # continues onward


class TestUniformRandomAlternating:
    def test_uniform(self):
        assert pointers.ring_uniform(5) == [1] * 5
        assert pointers.ring_uniform(5, -1) == [-1] * 5

    def test_uniform_validates(self):
        with pytest.raises(ValueError):
            pointers.ring_uniform(5, 0)

    def test_alternating(self):
        dirs = pointers.ring_alternating(6)
        assert dirs == [1, -1, 1, -1, 1, -1]

    def test_random_deterministic(self):
        assert pointers.ring_random(20, 3) == pointers.ring_random(20, 3)

    def test_random_values(self):
        assert set(pointers.ring_random(50, 1)) == {1, -1}

    def test_random_matches_choice_draws(self):
        # Pinned random initializations were drawn as
        # rng.choice((1, -1), size=n): each draw's values and the
        # generator's state after it must stay the same, so the later
        # draws of a shared generator do not move either.
        sizes = (3, 4, 7, 64, 127, 128, 1000, 4097)
        for seed in range(40):
            for n in sizes:
                assert pointers.ring_random(n, seed) == [
                    int(d)
                    for d in np.random.default_rng(seed).choice(
                        (1, -1), size=n
                    )
                ]
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for n in sizes:
                got = pointers.ring_random(n, ours)
                assert got == [
                    int(d) for d in theirs.choice((1, -1), size=n)
                ]
                assert all(type(d) is int for d in got)
                assert ours.bit_generator.state == theirs.bit_generator.state
            assert ours.random(3).tolist() == theirs.random(3).tolist()

    def test_explicit_validates(self):
        with pytest.raises(ValueError):
            pointers.ring_explicit([1, 0, -1])
        assert pointers.ring_explicit((1, -1)) == [1, -1]


class TestGeneralGraphPointers:
    def test_zero_ports(self):
        assert pointers.zero_ports(ring_graph(4)) == [0, 0, 0, 0]

    def test_random_ports_in_range(self):
        g = grid_2d(4, 4)
        ports = pointers.random_ports(g, 7)
        assert all(0 <= p < g.degree(v) for v, p in enumerate(ports))

    @pytest.mark.parametrize(
        "graph",
        [
            torus_2d(16, 16),
            hypercube(8),
            lollipop(24, 40),
            gnp_random_graph(192, 0.04, seed=5),
        ],
        ids=["torus", "hypercube", "lollipop", "gnp"],
    )
    def test_random_ports_match_one_draw_per_node(self, graph):
        # Callers draw ports from a shared generator, so the draw after
        # them must be the one a per-node loop would leave too.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            oracle = np.random.default_rng(seed)
            ports = pointers.random_ports(graph, rng)
            expected = [
                int(oracle.integers(0, graph.degree(v)))
                for v in range(graph.num_nodes)
            ]
            assert ports == expected
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert rng.integers(0, 2**40) == oracle.integers(0, 2**40)

    def test_ports_toward_sources_shortest_paths(self):
        g = grid_2d(4, 4)
        ports = pointers.ports_toward_sources(g, [0])
        distances = g.bfs_distances(0)
        for v in range(1, g.num_nodes):
            parent = g.port_target(v, ports[v])
            assert distances[parent] == distances[v] - 1

    def test_ports_toward_sources_validates(self):
        with pytest.raises(ValueError):
            pointers.ports_toward_sources(ring_graph(5), [])
        with pytest.raises(ValueError):
            pointers.ports_toward_sources(ring_graph(5), [7])

    def test_direction_port_mapping(self):
        assert pointers.ring_direction_to_port(1) == 0
        assert pointers.ring_direction_to_port(-1) == 1
        with pytest.raises(ValueError):
            pointers.ring_direction_to_port(2)

    def test_ring_pointers_to_ports(self):
        assert pointers.ring_pointers_to_ports([1, -1, 1]) == [0, 1, 0]
