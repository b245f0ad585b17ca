"""Tests for agent domains and lazy domains (paper §2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import Start, case, census, oracle_rows, start
from repro.analysis.domains_stats import border_type_census
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
from repro.core.ring import RingRotorRouter
from repro.util.rng import make_rng


def settled_system(n, k, rounds, seed=0):
    """A ring system run well past domain formation, with its tracker:
    k distinct seeded nodes under negative pointers."""
    agents = sorted(start(make_rng(seed), n, k, "spread").agents)
    engine = RingRotorRouter(n, pointers.ring_negative(n, agents), agents)
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


class TestBatchedCensus:
    """The array-native paths against the serial oracle: the
    ``census*``, ``trace``, ``snapshots*``, ``border-counts``,
    ``profile`` and ``lemma12`` rows of the differential harness
    (``tests/differential.py``), and hand-built corners."""

    test_matches_serial_oracle_on_random_lanes = case("census")
    test_figure1_configurations = case("census/figure1")

    @pytest.mark.parametrize("burn_in", range(6))
    def test_domain_error_parity(self, burn_in):
        # Six agents on one node put three on each neighbour in round 1.
        n = 10
        stacked = ([0] * 6, [1] * n)
        spread = ([2, 5, 8], pointers.ring_negative(n, [2, 5, 8]))
        try:
            expected = [
                census(Start(n, tuple(dirs), tuple(agents)), burn_in, 3)
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

    test_trace_matches_serial_oracle = case("trace")
    test_snapshots_match_serial_oracle_row_by_row = case("snapshots")

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

    test_lone_shared_anchor_states_partition_the_ring = case(
        "snapshots/shared-anchor"
    )

    def test_snapshots_domain_error_parity(self):
        engine = RingRotorRouter(10, [1] * 10, [4] * 3, track_counts=False)
        tracker = VisitTypeTracker(engine)
        with pytest.raises(DomainError):
            domain_snapshot(engine, tracker)
        with pytest.raises(DomainError):
            domain_snapshots(*oracle_rows(engine, tracker), [0])

    test_arbitrary_states_match_serial_oracle = case("border-counts")
    test_profile_matches_serial_oracle = case("profile")
    test_lemma12_matches_serial_oracle = case("lemma12")


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
