"""Tests for agent domains and lazy domains (paper §2.2)."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domains_stats import (
    border_type_census,
    final_profile_vs_lemma13,
    lemma12_adjacent_difference,
    trace_domains,
)
from repro.core import placement, pointers
from repro.core.domains import (
    BorderType,
    Domain,
    DomainError,
    VisitKind,
    VisitTypeTracker,
    border_counts,
    classify_borders,
    domain_snapshot,
    domain_snapshots,
    o_values,
)
from repro.core.path import PathRotorRouter
from repro.core.ring import RingRotorRouter
from repro.theory.sequences import solve_profile
from repro.util.rng import make_rng


def settled_system(n, k, rounds, seed=0):
    """A ring system run well past domain formation, with its tracker."""
    rng = make_rng(seed)
    agents = sorted(int(a) for a in rng.choice(n, size=k, replace=False))
    dirs = pointers.ring_negative(n, agents)
    engine = RingRotorRouter(n, dirs, agents)
    tracker = VisitTypeTracker(engine)
    for _ in range(rounds):
        tracker.advance()
    return engine, tracker


class TestOValues:
    def test_occupied_maps_to_self(self):
        e = RingRotorRouter(10, [1] * 10, [3, 7])
        omap = o_values(e)
        assert omap[3] == 3
        assert omap[7] == 7

    def test_unvisited_is_none(self):
        e = RingRotorRouter(10, [1] * 10, [0])
        omap = o_values(e)
        assert omap[5] is None

    def test_direction_opposite_pointer(self):
        # Agent walked 0 -> 1 -> 2; pointer at 1 now points... the agent
        # moved through 1 (entered from 0, left to 2): pointer at 1 was
        # +1 (allowed passage), flipped to -1.  o(1) looks opposite the
        # pointer: clockwise, finding the agent at 2.
        e = RingRotorRouter(10, [1] * 10, [0])
        e.step()
        e.step()
        assert e.positions() == [2]
        omap = o_values(e)
        assert e.ptr[1] == -1
        assert omap[1] == 2

    def test_single_agent_o_is_agent_position(self):
        # With one agent every visited node was last visited by it, so
        # o(v) must be the agent's current position (Lemma 4, claim 1).
        rng = make_rng(5)
        for _ in range(8):
            n = int(rng.integers(8, 24))
            dirs = [int(d) for d in rng.choice((1, -1), size=n)]
            e = RingRotorRouter(n, dirs, [int(rng.integers(0, n))])
            e.run(int(rng.integers(10, 120)))
            agent_at = e.positions()[0]
            omap = o_values(e)
            for v in range(n):
                if omap[v] is not None:
                    assert omap[v] == agent_at

    def test_lemma4_claim3_path_consistency(self):
        # Claim 3: every node on the path P(v, t) from v to o(v, t)
        # shares the same o-value.
        rng = make_rng(17)
        for _ in range(8):
            n = int(rng.integers(10, 28))
            k = int(rng.integers(2, 5))
            agents = sorted(
                int(a) for a in rng.choice(n, size=k, replace=False)
            )
            dirs = [int(d) for d in rng.choice((1, -1), size=n)]
            e = RingRotorRouter(n, dirs, agents)
            e.run(int(rng.integers(20, 150)))
            if max(e.counts.values()) > 2:
                continue
            omap = o_values(e)
            for v in range(n):
                if omap[v] is None or v in e.counts:
                    continue
                direction = -e.ptr[v]
                w = v
                for _ in range(n):
                    w = (w + direction) % n
                    if w == omap[v]:
                        break
                    assert omap[w] == omap[v]
                else:  # pragma: no cover - defensive
                    pytest.fail("o-target not reached while walking")


class TestVisitTypeTracker:
    def test_negative_init_first_visits_reflect(self):
        n = 20
        agents = [0]
        e = RingRotorRouter(n, pointers.ring_negative(n, agents), agents)
        tracker = VisitTypeTracker(e)
        tracker.advance()  # 0 -> 1, first visit
        assert tracker.kinds[1] == VisitKind.REFLECTION

    def test_positive_init_first_visits_propagate(self):
        n = 20
        agents = [0]
        e = RingRotorRouter(n, pointers.ring_positive(n, agents), agents)
        tracker = VisitTypeTracker(e)
        tracker.advance()
        assert tracker.kinds[1] == VisitKind.PROPAGATION

    def test_simultaneous_arrivals_marked_multiple(self):
        # Two agents both arrive at node 1 in the same round.
        n = 6
        e = RingRotorRouter(n, [1, 1, -1, 1, 1, 1], [0, 2])
        tracker = VisitTypeTracker(e)
        tracker.advance()
        assert e.counts.get(1, 0) == 2
        assert tracker.kinds[1] == VisitKind.MULTIPLE

    def test_initial_positions_marked(self):
        e = RingRotorRouter(8, [1] * 8, [3])
        tracker = VisitTypeTracker(e)
        assert tracker.kinds[3] == VisitKind.INITIAL
        assert tracker.kinds[0] == VisitKind.NEVER

    def test_classification_matches_next_move(self):
        # Whatever the tracker says, the next engine move must agree.
        rng = make_rng(7)
        for _ in range(6):
            n = int(rng.integers(8, 20))
            agents = [int(rng.integers(0, n))]
            dirs = [int(d) for d in rng.choice((1, -1), size=n)]
            e = RingRotorRouter(n, dirs, agents)
            tracker = VisitTypeTracker(e)
            for _ in range(60):
                moves = tracker.advance()
                if len(moves) == 1 and moves[0][2] == 1:
                    src, dst, _ = moves[0]
                    kind = tracker.kinds[dst]
                    next_moves = tracker.advance()
                    back = [m for m in next_moves if m[0] == dst]
                    assert len(back) == 1
                    if kind == VisitKind.REFLECTION:
                        assert back[0][1] == src
                    elif kind == VisitKind.PROPAGATION:
                        assert back[0][1] != src


class TestDomainSnapshot:
    def test_domains_partition_visited_nodes(self):
        # The k = 1 system is covered: its lone domain is the whole ring.
        for n, k, rounds in ((60, 4, 600), (12, 1, 240)):
            engine, tracker = settled_system(n, k, rounds=rounds)
            snap = domain_snapshot(engine, tracker)
            all_nodes = []
            for dom in snap.domains:
                all_nodes.extend(dom.nodes(engine.n))
            all_nodes.extend(snap.unvisited)
            assert sorted(all_nodes) == list(range(engine.n))

    def test_domain_count_matches_agents(self):
        engine, tracker = settled_system(60, 4, rounds=600)
        snap = domain_snapshot(engine, tracker)
        assert len(snap.domains) == 4

    def test_anchor_inside_domain(self):
        for n, k, rounds in ((48, 3, 400), (12, 1, 240)):
            engine, tracker = settled_system(n, k, rounds=rounds, seed=3)
            snap = domain_snapshot(engine, tracker)
            for dom in snap.domains:
                assert dom.contains(engine.n, dom.anchor)

    def test_lazy_subset_of_domain(self):
        engine, tracker = settled_system(60, 5, rounds=700, seed=1)
        snap = domain_snapshot(engine, tracker)
        for dom in snap.domains:
            domain_nodes = set(dom.nodes(engine.n))
            for v in dom.lazy_nodes(engine.n):
                assert v in domain_nodes

    def test_lemma6_lazy_misses_at_most_endpoints(self):
        engine, tracker = settled_system(60, 4, rounds=800, seed=2)
        snap = domain_snapshot(engine, tracker)
        for dom in snap.domains:
            assert dom.lazy_length >= dom.length - 2

    def test_three_agents_on_node_rejected(self):
        e = RingRotorRouter(10, [1] * 10, [0, 0, 0])
        with pytest.raises(DomainError):
            domain_snapshot(e)

    def test_two_agents_same_node_split(self):
        # Force two agents onto one node and check the split rule.
        n = 12
        e = RingRotorRouter(n, [1, 1, -1] + [1] * (n - 3), [0, 2])
        tracker = VisitTypeTracker(e)
        tracker.advance()  # both agents arrive at node 1
        assert e.counts.get(1, 0) == 2
        snap = domain_snapshot(e, tracker)
        assert len(snap.domains) == 2
        anchored = [d for d in snap.domains if d.anchor == 1]
        assert len(anchored) == 2
        # The anchor node belongs to exactly one of the two domains.
        containing = [
            d for d in anchored if d.contains(n, 1) and d.length > 0
        ]
        total_containing = sum(
            1 for d in anchored if any(v == 1 for v in d.nodes(n))
        )
        assert total_containing == 1
        assert containing

    def test_lone_shared_anchor_partitions_the_ring(self):
        # Both agents meet on node 2 of the covered 5-ring in round 7.
        # Its other nodes are two runs: clockwise pointers from node 3,
        # anticlockwise ones up to node 1.  They split at the anchor,
        # whose clockwise pointer puts it in the anticlockwise part.
        engine = RingRotorRouter(5, [-1, 1, 1, 1, -1], [1, 3])
        tracker = VisitTypeTracker(engine)
        tracker.run(7)
        assert engine.counts == {2: 2}
        assert list(engine.ptr) == [-1, -1, 1, 1, 1]
        snap = domain_snapshot(engine, tracker)
        assert [d.nodes(5) for d in snap.domains] == [[0, 1, 2], [3, 4]]
        assert snap.sizes() == [3, 2]
        assert domain_snapshots(*oracle_rows(engine, tracker), [7]) == [snap]

    def test_snapshot_without_tracker_has_empty_lazy(self):
        e = RingRotorRouter(12, [1] * 12, [0, 6])
        e.run(30)
        snap = domain_snapshot(e)
        assert all(d.lazy_length == 0 for d in snap.domains)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=15, deadline=None)
    def test_domains_contiguous_random(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(12, 40))
        k = int(rng.integers(2, 5))
        engine, tracker = settled_system(n, k, rounds=300, seed=seed)
        if max(engine.counts.values()) > 2:
            return
        snap = domain_snapshot(engine, tracker)
        for dom in snap.domains:
            nodes = dom.nodes(n)
            for a, b in zip(nodes, nodes[1:]):
                assert (b - a) % n == 1


class TestBorders:
    def test_settled_borders_are_vertex_or_edge(self):
        engine, tracker = settled_system(64, 4, rounds=1500, seed=4)
        for _ in range(100):
            tracker.advance()
            snap = domain_snapshot(engine, tracker)
            for border in classify_borders(snap):
                assert border in (BorderType.VERTEX, BorderType.EDGE)

    def test_no_borders_with_single_agent(self):
        e = RingRotorRouter(16, [1] * 16, [0])
        tracker = VisitTypeTracker(e)
        for _ in range(100):
            tracker.advance()
        snap = domain_snapshot(e, tracker)
        assert classify_borders(snap) == []

    def test_lemma12_lazy_domains_equalize(self):
        n, k = 96, 6
        agents = placement.equally_spaced(n, k)
        # Perturb the placement so domains start very unequal.
        agents = [0, 1, 2, 40, 41, 70]
        e = RingRotorRouter(n, pointers.ring_negative(n, agents), agents)
        tracker = VisitTypeTracker(e)
        for _ in range(60 * n):
            tracker.advance()
        snap = domain_snapshot(e, tracker)
        assert snap.max_adjacent_lazy_difference() <= 10


def serial_census(n, agents, directions, burn_in, observation_rounds):
    """The per-configuration census on the serial oracle."""
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    for _ in range(burn_in):
        tracker.advance()
    census = Counter()
    for _ in range(observation_rounds):
        tracker.advance()
        census.update(classify_borders(domain_snapshot(engine, tracker)))
    return census


def random_lane(rng, n, stacked=False):
    """Random agents (at most 2 per node, some co-located) and pointers;
    with ``stacked``, 1-9 agents all start on one node."""
    if stacked:
        k = int(rng.integers(1, 10))
        return [int(rng.integers(0, n))] * k, [
            int(d) for d in rng.choice((-1, 1), size=n)
        ]
    k = int(rng.integers(1, min(9, 2 * n) + 1))
    pairs = int(rng.integers(0, k // 2 + 1)) if rng.random() < 0.5 else 0
    pairs = max(pairs, k - n)
    nodes = [int(v) for v in rng.choice(n, size=k - pairs, replace=False)]
    directions = [int(d) for d in rng.choice((-1, 1), size=n)]
    return nodes + nodes[:pairs], directions


def serial_trace(n, agents, directions, total_rounds, sample_every,
                 stop_at_cover):
    """``trace_domains`` on the serial oracle: (rounds, snapshots)."""
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    rounds, snapshots = [], []
    for _ in range(total_rounds):
        tracker.advance()
        if engine.round % sample_every == 0:
            if max(engine.counts.values()) <= 2:
                rounds.append(engine.round)
                snapshots.append(domain_snapshot(engine, tracker))
        if stop_at_cover and engine.unvisited == 0:
            break
    return rounds, snapshots


def serial_profile(n, k, rounds_budget):
    """``final_profile_vs_lemma13`` on the serial path oracle."""
    engine = PathRotorRouter(n, [-1] * n, [0] * k, track_counts=False)
    for _ in range(rounds_budget):
        if engine.unvisited <= max(2, n // 50):
            break
        engine.step()
    if sorted(engine.positions(), reverse=True)[0] <= k:
        raise RuntimeError("agents did not spread within the budget")
    window = 4 * n
    right_ends = [0] * k
    for _ in range(window):
        engine.step()
        for i, position in enumerate(sorted(engine.positions(), reverse=True)):
            if position > right_ends[i]:
                right_ends[i] = position
    boundaries = right_ends + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    predicted = np.asarray(solve_profile(k).a[1:k + 1], dtype=float)
    return sizes / sizes.sum(), predicted / predicted.sum()


def oracle_rows(engine, tracker):
    """One configuration as the ``(1, n)`` rows ``domain_snapshots`` takes."""
    n = engine.n
    counts = np.zeros((1, n), dtype=np.int64)
    for v, c in engine.counts.items():
        counts[0, v] = c
    clockwise = np.asarray([engine.ptr]) == 1
    visited = np.asarray([list(engine.visited)], dtype=bool)
    propagation = np.asarray(
        [[kind == VisitKind.PROPAGATION for kind in tracker.kinds]]
    )
    return counts, clockwise, visited, propagation


def arbitrary_block(rng):
    """Seeded rows of arbitrary states, outside any trajectory.

    1-4 rows on an n-ring (n 3-39): counts 0-2 with at least one agent
    per row, or one site holding one or two agents; random pointers;
    visited nodes covering the occupied ones.  Agent, visited and
    PROPAGATION densities are drawn per row, 0 and 1 included, so rows
    with no run boundary sit beside rows with many.
    """
    n = int(rng.integers(3, 40))
    rows = int(rng.integers(1, 5))
    counts = np.zeros((rows, n), dtype=np.int64)
    for r in range(rows):
        if rng.random() < 0.2:
            counts[r, rng.integers(n)] = rng.integers(1, 3)
            continue
        counts[r] = rng.integers(0, 3, n) * (rng.random(n) < rng.random())
        if not counts[r].any():
            counts[r, rng.integers(n)] = 1
    clockwise = rng.integers(0, 2, (rows, n)).astype(np.int8)
    densities = rng.choice(
        [0.0, 1.0, rng.random(), rng.random()], (2, rows, 1)
    )
    visited = (rng.random((rows, n)) < densities[0]) | (counts > 0)
    propagation = rng.random((rows, n)) < densities[1]
    return counts, clockwise, visited, propagation


def oracle_snapshot(counts, clockwise, visited, propagation, round_):
    """``domain_snapshot`` of one row, through a duck-typed engine."""
    engine = SimpleNamespace(
        n=counts.size,
        round=round_,
        counts={v: int(c) for v, c in enumerate(counts) if c},
        ptr=[1 if bit else -1 for bit in clockwise],
        visited=visited.tolist(),
    )
    tracker = SimpleNamespace(kinds=[
        VisitKind.PROPAGATION if p else VisitKind.NEVER for p in propagation
    ])
    return domain_snapshot(engine, tracker)


def outcome(fn, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (DomainError, RuntimeError) as error:
        return type(error)


class TestBatchedCensus:
    """The array-native paths against the serial oracle, on one seeded
    generator: ``border_type_census`` lane by lane, ``trace_domains``,
    ``lemma12_adjacent_difference`` and ``final_profile_vs_lemma13``,
    and ``domain_snapshots`` row by row."""

    def test_matches_serial_oracle_on_random_lanes(self):
        rng = make_rng(2013)
        for _ in range(100):
            n = int(rng.integers(3, 41))
            lanes = [random_lane(rng, n) for _ in range(int(rng.integers(1, 5)))]
            # Burn-in as short as 0 leaves some rings uncovered.
            burn_in = int(rng.integers(0, 5 * n + 1))
            rounds = int(rng.integers(1, 3 * n + 1))
            expected = [
                serial_census(n, agents, dirs, burn_in, rounds)
                for agents, dirs in lanes
            ]
            assert border_type_census(n, lanes, burn_in, rounds) == expected

    def test_figure1_configurations(self):
        n = 64
        lanes = []
        for k in (4, 8, 16):
            for agents in (
                placement.equally_spaced(n, k),
                placement.random_nodes(n, k, seed=k, distinct=True),
            ):
                lanes.append((agents, pointers.ring_negative(n, agents)))
        expected = [
            serial_census(n, agents, dirs, 10 * n, 4 * n)
            for agents, dirs in lanes
        ]
        assert border_type_census(n, lanes, 10 * n, 4 * n) == expected
        assert all(sum(census.values()) > 0 for census in expected)

    @pytest.mark.parametrize("burn_in", range(6))
    def test_domain_error_parity(self, burn_in):
        # Six agents on one node put three on each neighbour in round 1.
        n = 10
        stacked = ([0] * 6, [1] * n)
        spread = ([2, 5, 8], pointers.ring_negative(n, [2, 5, 8]))
        try:
            expected = [
                serial_census(n, agents, dirs, burn_in, 3)
                for agents, dirs in (stacked, spread)
            ]
        except DomainError:
            with pytest.raises(DomainError):
                border_type_census(n, [stacked, spread], burn_in, 3)
        else:
            assert border_type_census(
                n, [stacked, spread], burn_in, 3
            ) == expected

    def test_rejects_bad_schedule(self):
        lanes = [([0, 4], [1] * 8)]
        with pytest.raises(ValueError):
            border_type_census(8, lanes, -1, 4)

    def test_trace_matches_serial_oracle(self):
        rng = make_rng(2015)
        for _ in range(150):
            n = int(rng.integers(3, 49))
            agents, dirs = random_lane(rng, n, stacked=rng.random() < 0.3)
            args = (
                n, agents, dirs, int(rng.integers(1, 6 * n + 1)),
                int(rng.integers(1, 5)), bool(rng.integers(0, 2)),
            )
            trace = trace_domains(*args)
            assert (trace.rounds, trace.snapshots) == serial_trace(*args)
            assert trace.k == len(agents)

    def test_snapshots_match_serial_oracle_row_by_row(self):
        rng = make_rng(2016)
        for _ in range(150):
            n = int(rng.integers(3, 41))
            agents, dirs = random_lane(rng, n, stacked=rng.random() < 0.3)
            engine = RingRotorRouter(n, dirs, agents, track_counts=False)
            tracker = VisitTypeTracker(engine)
            tracker.run(int(rng.integers(0, 4 * n + 1)))
            expected = outcome(domain_snapshot, engine, tracker)
            got = outcome(
                domain_snapshots, *oracle_rows(engine, tracker), [engine.round]
            )
            assert got == (
                expected if isinstance(expected, type) else [expected]
            )

    def test_snapshots_keep_a_shared_anchors_empty_half(self):
        # Three agents on node 36: two reach node 35, whose pointer
        # leads anticlockwise, so its anticlockwise half is empty.
        n = 38
        engine = RingRotorRouter(n, [-1] * n, [36] * 3, track_counts=False)
        tracker = VisitTypeTracker(engine)
        tracker.advance()
        expected = domain_snapshot(engine, tracker)
        assert Domain(35, 35, 0, 35, 0) in expected.domains
        assert domain_snapshots(
            *oracle_rows(engine, tracker), [1]
        ) == [expected]

    def test_snapshots_of_a_lone_agent_on_a_covered_ring(self):
        engine = RingRotorRouter(12, [1] * 12, [5], track_counts=False)
        tracker = VisitTypeTracker(engine)
        tracker.run(200)
        expected = domain_snapshot(engine, tracker)
        assert expected.sizes() == [12]
        assert domain_snapshots(
            *oracle_rows(engine, tracker), [engine.round]
        ) == [expected]

    def test_lone_shared_anchor_states_partition_the_ring(self):
        # Seeded k = 2 trajectories, sampled whenever both agents share
        # one node: the domains and the unvisited nodes partition the
        # ring, and the serial and array paths agree on every state.
        rng = make_rng(2024)
        states = 0
        for _ in range(60):
            n = int(rng.integers(5, 40))
            dirs = [int(d) for d in rng.choice((1, -1), size=n)]
            agents = [int(a) for a in rng.integers(0, n, size=2)]
            engine = RingRotorRouter(n, dirs, agents, track_counts=False)
            tracker = VisitTypeTracker(engine)
            sampled = 0
            while engine.round < 2 * n * n and sampled < 4:
                tracker.advance()
                if len(engine.counts) != 1:
                    continue
                sampled += 1
                snap = domain_snapshot(engine, tracker)
                nodes = sorted(
                    [v for d in snap.domains for v in d.nodes(n)]
                    + list(snap.unvisited)
                )
                assert nodes == list(range(n))
                rows = oracle_rows(engine, tracker)
                assert domain_snapshots(*rows, [engine.round]) == [snap]
                census = Counter(classify_borders(snap))
                assert border_counts(*rows)[0].tolist() == [
                    census[t] for t in BorderType
                ]
            states += sampled
        assert states >= 100

    def test_snapshots_domain_error_parity(self):
        engine = RingRotorRouter(10, [1] * 10, [4] * 3, track_counts=False)
        tracker = VisitTypeTracker(engine)
        with pytest.raises(DomainError):
            domain_snapshot(engine, tracker)
        with pytest.raises(DomainError):
            domain_snapshots(*oracle_rows(engine, tracker), [0])

    def test_arbitrary_states_match_serial_oracle(self):
        # The array paths search flat run-boundary lists that run across
        # row ends, so every block mixes rows of unlike densities.
        rng = make_rng(2019)
        for _ in range(400):
            block = arbitrary_block(rng)
            rows = len(block[0])
            snapshots = domain_snapshots(*block, range(rows))
            tallies = border_counts(*block)
            for r in range(rows):
                expected = oracle_snapshot(*(a[r] for a in block), r)
                assert snapshots[r] == expected
                census = Counter(classify_borders(expected))
                assert tallies[r].tolist() == [census[t] for t in BorderType]
            # A block's tallies are its rows' tallies, each row alone.
            alone = [
                border_counts(*(a[r:r + 1] for a in block))
                for r in range(rows)
            ]
            assert np.array_equal(np.concatenate(alone), tallies)

    def test_profile_matches_serial_oracle(self):
        rng = make_rng(2017)
        for _ in range(25):
            n = int(rng.integers(20, 201))
            k = int(rng.integers(4, 10))
            # Log-uniform budgets: the shortest stop before the agents
            # pass node k, the longest reach the near-cover stop.
            budget = int(2.0 ** rng.uniform(0, np.log2(n * n)))
            expected = outcome(serial_profile, n, k, budget)
            got = outcome(final_profile_vs_lemma13, n, k, budget)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert all(map(np.array_equal, got, expected))

    def test_lemma12_matches_serial_oracle(self):
        rng = make_rng(2018)
        for _ in range(30):
            n = int(rng.integers(3, 41))
            agents, dirs = random_lane(rng, n, stacked=rng.random() < 0.3)
            rounds = int(rng.integers(0, 6 * n + 1))
            engine = RingRotorRouter(n, dirs, agents, track_counts=False)
            tracker = VisitTypeTracker(engine)
            tracker.run(rounds)
            expected = outcome(domain_snapshot, engine, tracker)
            got = outcome(lemma12_adjacent_difference, n, agents, dirs, rounds)
            if isinstance(expected, type):
                assert got is expected
            elif expected.unvisited:
                assert got is RuntimeError
            else:
                assert got == expected.max_adjacent_lazy_difference()


def valid_block(rows=3, n=8):
    """Well-formed rows: agents on nodes 0 and 4 of a covered n-ring."""
    counts = np.zeros((rows, n), dtype=np.int64)
    counts[:, [0, 4]] = 1
    return [
        counts,
        np.ones((rows, n), dtype=np.int8),
        np.ones((rows, n), dtype=bool),
        np.zeros((rows, n), dtype=bool),
    ]


def snapshots_of(*block):
    """``domain_snapshots`` with one round per row."""
    return domain_snapshots(*block, [0] * len(block[0]))


@pytest.mark.parametrize("census", [border_counts, snapshots_of])
class TestRowValidation:
    """Malformed rows fail at the ``border_counts``/``domain_snapshots``
    boundary with one ``ValueError``, before any array work."""

    def test_well_formed_rows_pass(self, census):
        census(*valid_block())

    def test_rows_must_share_one_shape(self, census):
        block = valid_block()
        block[1] = block[1][:1]
        with pytest.raises(ValueError, match="2-D arrays of one shape"):
            census(*block)

    def test_rows_must_be_2d(self, census):
        block = valid_block(rows=1)
        block[3] = block[3][0]
        with pytest.raises(ValueError, match="2-D arrays of one shape"):
            census(*block)

    def test_visit_rows_must_be_boolean(self, census):
        block = valid_block()
        block[2] = block[2].astype(np.int8)
        with pytest.raises(ValueError, match="boolean"):
            census(*block)

    def test_counts_must_be_non_negative(self, census):
        block = valid_block()
        block[0][1, 2] = -1
        with pytest.raises(ValueError, match="non-negative"):
            census(*block)

    def test_occupied_nodes_must_be_visited(self, census):
        block = valid_block()
        block[2][2, 4] = False
        with pytest.raises(ValueError, match="visited"):
            census(*block)

    def test_a_row_without_agents_has_no_domains(self, census):
        # domain_snapshot raises the same for an empty ring.
        block = valid_block()
        block[0][1] = 0
        with pytest.raises(DomainError):
            census(*block)

    def test_three_agents_on_a_node_stay_a_domain_error(self, census):
        block = valid_block()
        block[0][0, 4] = 3
        with pytest.raises(DomainError):
            census(*block)


@pytest.mark.parametrize("rounds", [[0, 1], [0, 1, 2, 3]])
def test_snapshots_take_one_round_per_row(rounds):
    with pytest.raises(ValueError, match="rounds"):
        domain_snapshots(*valid_block(rows=3), rounds)
