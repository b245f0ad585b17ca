"""Tests for limit-cycle detection, return times, Eulerian lock-in."""

import pytest

from repro.core import placement, pointers
from repro.core.engine import MultiAgentRotorRouter
from repro.core.limit import (
    LimitCycle,
    arc_balance_in_cycle,
    eulerian_lockin,
    find_limit_cycle,
    return_time_exact,
)
from repro.core.ring import RingRotorRouter
from repro.graphs.families import grid_2d, path_graph, star
from repro.graphs.ring import ring_graph


class FakeCycler:
    """Deterministic system with known preperiod/period for testing."""

    def __init__(self, preperiod: int, period: int, state: int = 0):
        self.preperiod = preperiod
        self.period = period
        self.state = state
        self.round = 0

    def step(self, holds=None):
        if self.state < self.preperiod + self.period - 1:
            self.state += 1
        else:
            self.state = self.preperiod
        self.round += 1
        return []

    def clone(self):
        return FakeCycler(self.preperiod, self.period, self.state)

    def state_key(self) -> bytes:
        return self.state.to_bytes(8, "big")


class TestBrent:
    @pytest.mark.parametrize(
        "preperiod,period",
        [(0, 1), (0, 5), (3, 1), (7, 4), (13, 9), (1, 100), (50, 3)],
    )
    def test_recovers_known_cycles(self, preperiod, period):
        cycle = find_limit_cycle(FakeCycler(preperiod, period), 10_000)
        assert cycle == LimitCycle(preperiod=preperiod, period=period)

    def test_budget_enforced(self):
        with pytest.raises(RuntimeError):
            find_limit_cycle(FakeCycler(1000, 1000), 50)

    def test_input_not_mutated(self):
        system = FakeCycler(5, 7)
        find_limit_cycle(system, 1000)
        assert system.state == 0
        assert system.round == 0

    def test_single_agent_ring_cycle(self):
        # One agent on the ring in the limit just orbits: period n
        # (each arc of one orientation traversed once per period... the
        # rotor alternates, giving a full Eulerian circuit of 2n arcs).
        n = 8
        e = RingRotorRouter(n, [1] * n, [0], track_counts=False)
        cycle = find_limit_cycle(e, 100_000)
        assert cycle.period == 2 * n  # Eulerian circuit of the 2n arcs


class TestReturnTimes:
    def test_exact_single_agent(self):
        n = 12
        e = RingRotorRouter(n, [1] * n, [0], track_counts=False)
        result = return_time_exact(e, n, 100_000)
        # One agent, Eulerian behaviour: every node seen twice per 2n
        # rounds; worst gap is at most the period, at least n/2.
        assert result.worst <= 2 * n
        assert result.best >= 1

    def test_theorem6_band_spaced(self):
        n, k = 64, 4
        agents = placement.equally_spaced(n, k)
        e = RingRotorRouter(
            n, pointers.ring_negative(n, agents), agents, track_counts=False
        )
        result = return_time_exact(e, n, 10 ** 6)
        normalized = result.worst * k / n
        assert 1.0 <= normalized <= 3.0


class TestEulerianLockIn:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: ring_graph(8),
            lambda: path_graph(6),
            lambda: star(4),
            lambda: grid_2d(3, 3),
        ],
    )
    def test_yanovski_lockin(self, graph_factory):
        graph = graph_factory()
        engine = MultiAgentRotorRouter(
            graph, [0] * graph.num_nodes, [0]
        )
        result = eulerian_lockin(
            engine, graph.num_arcs, max_rounds=10 * graph.num_arcs ** 2
        )
        assert result.locks_into_euler_cycle
        # Yanovski et al.: lock-in within 2 D |E| rounds.
        bound = 2 * graph.diameter() * graph.num_edges
        assert result.lock_in_round <= bound

    def test_lockin_with_adversarial_ports(self):
        graph = grid_2d(3, 4)
        from repro.core.pointers import ports_toward_sources

        engine = MultiAgentRotorRouter(
            graph, ports_toward_sources(graph, [0]), [0]
        )
        result = eulerian_lockin(
            engine, graph.num_arcs, max_rounds=10 * graph.num_arcs ** 2
        )
        assert result.locks_into_euler_cycle
        assert result.lock_in_round <= 2 * graph.diameter() * graph.num_edges


class TestArcBalance:
    def test_single_agent_perfectly_fair(self):
        graph = grid_2d(3, 3)
        engine = MultiAgentRotorRouter(graph, [0] * 9, [4])
        low, high = arc_balance_in_cycle(
            engine, 100_000, num_arcs=graph.num_arcs
        )
        assert (low, high) == (1, 1)

    def test_multi_agent_similar_frequencies(self):
        # [27]: the multi-agent rotor-router visits all edges a similar
        # number of times in the limit.
        n = 24
        agents = placement.equally_spaced(n, 3)
        e = RingRotorRouter(
            n, pointers.ring_negative(n, agents), agents, track_counts=False
        )
        low, high = arc_balance_in_cycle(e, 10 ** 6, num_arcs=2 * n)
        assert low >= 1
        assert high <= 4 * max(low, 1)
