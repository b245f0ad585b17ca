"""The one ring-and-path stepper against the reference engines.

One seeded generator of ring and path starts drives every check, at
``_SHORTEST_JUMP`` 8 (the production value) and 1 (every jump the
bounds allow):

* ring runs against :class:`RingRotorRouter` with a
  :class:`VisitTypeTracker`: counts, pointers, visited nodes,
  PROPAGATION flags and the cover round after random round counts,
  with and without a stop;
* path runs against :class:`PathRotorRouter`, with several agents on an
  endpoint, the stop at s unvisited nodes, and rank maxima;
* lone walks against ``PathRotorRouter.step`` under
  :func:`hold_all_except_one_at`, targets ahead and behind;
* :func:`run_theorem1_deployment` against the same construction stepped
  on :class:`PathRotorRouter` under the same holds;
* Lemmas 4 and 5 as properties of the generator's ring trajectories.
"""

import numpy as np
import pytest

from repro.analysis.domains_stats import trace_domains
from repro.core.delayed import hold_all_except_one_at
from repro.core.domains import VisitKind, VisitTypeTracker
from repro.core.path import PathRotorRouter
from repro.core.ring import RingRotorRouter
from repro.experiments import deployments
from repro.sweep import batch_ring
from repro.sweep.batch_ring import (
    Trajectory,
    lanes_from_configs,
    ring_trajectories,
)


@pytest.fixture(params=[8, 1], ids=["shortest8", "shortest1"])
def shortest(request, monkeypatch):
    monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", request.param)
    return request.param


def ring_starts(seed, count):
    """Seeded ``(n, directions, agents)`` ring starts, n in 3..64:
    stacked, clustered and spread agents, under random pointers or one
    direction with a few nodes flipped."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 65))
        k = int(rng.integers(1, n))
        start = int(rng.integers(n))
        if i % 3 == 0:
            agents = [start] * k
        elif i % 3 == 1:
            width = max(1, 2 * k // 3)
            agents = [(start + int(a)) % n for a in rng.integers(0, width, k)]
        else:
            agents = [int(a) for a in rng.choice(n, k, replace=False)]
        if i // 3 % 2:
            directions = [int(d) for d in rng.choice((-1, 1), size=n)]
        else:
            way = int(rng.choice((-1, 1)))
            directions = [way] * n
            for v in rng.integers(0, n, size=int(rng.integers(1, 4))):
                directions[v] = -way
        yield n, directions, agents


def path_starts(seed, count):
    """Seeded ``(n, directions, agents)`` path starts, n in 2..64: all
    agents on one endpoint, split between both, or anywhere."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, 10))
        if i % 3 == 0:
            agents = [int(rng.choice([0, n - 1]))] * k
        elif i % 3 == 1:
            agents = [0] * (k // 2) + [n - 1] * (k - k // 2)
        else:
            agents = [int(a) for a in rng.integers(0, n, size=k)]
        directions = [int(d) for d in rng.choice((-1, 1), size=n)]
        yield n, directions, agents


def ring_trajectory(n, directions, agents):
    (ring,) = ring_trajectories(
        n, *lanes_from_configs(n, [(directions, agents)]), True
    )
    return ring


def path_trajectory(n, directions, agents, stepper=Trajectory):
    occupied: dict[int, int] = {}
    for a in agents:
        occupied[a] = occupied.get(a, 0) + 1
    return stepper(
        n, bytearray(d == 1 for d in directions), occupied, path=True
    )


def assert_same_state(trajectory, engine):
    assert trajectory.round == engine.round
    assert trajectory.occupied == engine.counts
    assert list(trajectory.bits) == [int(d == 1) for d in engine.ptr]
    assert trajectory.visited == engine.visited
    assert trajectory.unvisited == engine.unvisited
    assert trajectory.cover_round == engine.cover_round


class OraclePath:
    """A path trajectory stepped on :class:`PathRotorRouter`, one round
    at a time, lone agents released by :func:`hold_all_except_one_at`:
    what the deployment ran on before it ran on :class:`Trajectory`."""

    def __init__(self, n, bits, occupied, path=True):
        assert path
        self.engine = PathRotorRouter(
            n,
            [1 if b else -1 for b in bits],
            [v for v, c in occupied.items() for _ in range(c)],
            track_counts=False,
        )

    def __getattr__(self, name):
        engine = self.__dict__["engine"]
        if name == "occupied":
            return engine.counts
        if name == "bits":
            return bytearray(d == 1 for d in engine.ptr)
        return getattr(engine, name)

    def run(self, rounds, stop=-1):
        for _ in range(rounds):
            self.engine.step()
            if self.engine.unvisited <= stop:
                break

    def walk(self, start, target, budget):
        if start == target:
            return 0
        position = start
        for used in range(1, budget + 1):
            moves = self.engine.step(
                hold_all_except_one_at(self.engine, position)
            )
            (moved,) = [m for m in moves if m[0] == position]
            previous, position = position, moved[1]
            if position == target and position == previous + 1:
                return used
        return -1


class TestRingRuns:
    def test_runs_match_the_engine_and_its_visit_kinds(self, shortest):
        for n, directions, agents in ring_starts(20261019, 60):
            engine = RingRotorRouter(n, directions, agents, track_counts=False)
            tracker = VisitTypeTracker(engine)
            ring = ring_trajectory(n, directions, agents)
            rng = np.random.default_rng(n * len(agents))
            for _ in range(3):
                rounds = int(rng.integers(1, 4 * n))
                stop = int(rng.choice([-1, 0, rng.integers(0, n)]))
                ring.run(rounds, stop)
                for _ in range(rounds):
                    tracker.advance()
                    if engine.unvisited <= stop:
                        break
                assert_same_state(ring, engine)
                assert list(ring.propagation) == [
                    kind == VisitKind.PROPAGATION for kind in tracker.kinds
                ]

    def test_cover_stop_matches_the_engine(self, shortest):
        for n, directions, agents in ring_starts(7, 30):
            engine = RingRotorRouter(n, directions, agents, track_counts=False)
            ring = ring_trajectory(n, directions, agents)
            budget = 4 * n * n
            cover = engine.run_until_covered(budget)
            if ring.unvisited:
                ring.run(budget, stop=0)
            assert ring.round == ring.cover_round == cover
            assert ring.unvisited == 0


class TestPathRuns:
    def test_runs_with_stops_and_rank_maxima(self, shortest):
        for n, directions, agents in path_starts(2013, 60):
            engine = PathRotorRouter(n, directions, agents, track_counts=False)
            path = path_trajectory(n, directions, agents)
            rng = np.random.default_rng(n + 7 * len(agents))
            stop = int(rng.integers(-1, n))
            for _ in range(2):
                rounds = int(rng.integers(1, 4 * n))
                path.run(rounds, stop)
                for _ in range(rounds):
                    engine.step()
                    if engine.unvisited <= stop:
                        break
                assert_same_state(path, engine)
            window = int(rng.integers(1, 4 * n))
            maxima = [0] * len(agents)
            path.run(window, maxima=maxima)
            expected = [0] * len(agents)
            for _ in range(window):
                engine.step()
                ranked = sorted(engine.positions(), reverse=True)
                expected = [max(m, v) for m, v in zip(expected, ranked)]
            assert maxima == expected
            assert_same_state(path, engine)


class TestLoneWalks:
    def test_walks_match_hold_all_except_one(self):
        rng = np.random.default_rng(1)
        for n, directions, agents in path_starts(15, 60):
            oracle = path_trajectory(n, directions, agents, OraclePath)
            path = path_trajectory(n, directions, agents)
            for _ in range(4):
                start = int(rng.choice(sorted(path.occupied)))
                target = int(rng.integers(0, n))  # ahead or behind
                budget = int(rng.integers(0, 2 * n * n))
                used = path.walk(start, target, budget)
                assert used == oracle.walk(start, target, budget)
                if used < 0:
                    break
                assert_same_state(path, oracle.engine)


def oracle_deployment(n, k, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(deployments, "Trajectory", OraclePath)
        return deployments.run_theorem1_deployment(n, k)


class TestDeployment:
    CASES = ((120, 4), (200, 6), (300, 6), (400, 6))

    @pytest.fixture(scope="class")
    def oracle_traces(self):
        patch = pytest.MonkeyPatch()
        try:
            return {
                case: oracle_deployment(*case, patch) for case in self.CASES
            }
        finally:
            patch.undo()

    @pytest.mark.parametrize("case", CASES)
    def test_trace_matches_the_hold_construction(
        self, shortest, oracle_traces, case
    ):
        trace = deployments.run_theorem1_deployment(*case)
        expected = oracle_traces[case]
        assert trace.s_ladder == expected.s_ladder
        assert (
            trace.phase_a_rounds, trace.phase_b1_rounds,
            trace.phase_b2_rounds, trace.cover_round,
        ) == (
            expected.phase_a_rounds, expected.phase_b1_rounds,
            expected.phase_b2_rounds, expected.cover_round,
        )
        assert trace.invariant_violations == expected.invariant_violations


class TestDomainLemmas:
    """§2.2's Lemmas 4 and 5 on the generator's ring trajectories."""

    def test_at_most_two_agents_per_node_stays_so(self, shortest):
        # Lemma 5: once no node holds more than 2 agents, none does again.
        rng = np.random.default_rng(5)
        for n, directions, agents in ring_starts(55, 60):
            ring = ring_trajectory(n, directions, agents)
            settled = False
            while ring.round < 6 * n:
                ring.run(int(rng.integers(1, 9)))
                crowded = max(ring.occupied.values()) > 2
                assert not (settled and crowded)
                settled = settled or not crowded

    def test_every_snapshot_is_partitioned(self, shortest):
        # Lemma 4: the domains and the unvisited nodes partition the ring.
        snapshots = 0
        for n, directions, agents in ring_starts(44, 30):
            trace = trace_domains(n, agents, directions, 8 * n, 3)
            for snap in trace.snapshots:
                nodes = sorted(
                    [v for d in snap.domains for v in d.nodes(n)]
                    + list(snap.unvisited)
                )
                assert nodes == list(range(n))
            snapshots += len(trace.snapshots)
        assert snapshots >= 2000
