"""The batch ring kernel must match the reference engines exactly.

The differential harness (``tests/differential.py``) holds every driver
to :class:`repro.core.ring.RingRotorRouter` and :mod:`repro.core.limit`
on its seeded starts: lockstep rows, covers from the windowed driver,
the closed form and the straight-run stepper, and Brent's preperiods,
periods, cycle-start rows and return gaps.  This file runs those rows
and keeps the hand-built corners, counters and validation.
"""

import numpy as np
import pytest

from differential import (
    Start,
    assert_limits,
    case,
    family_starts,
    fingerprint_words,
    lanes,
    mixed_cover_block,
    oracle_cover,
    oracle_limit,
)
from repro.core import placement, pointers
from repro.obs.manifest import load_manifest, trace_session
from repro.obs.telemetry import Telemetry, set_active
from repro.sweep import batch_ring
from repro.sweep.batch_ring import (
    BatchRingKernel,
    LaneBlock,
    _jump_length,
    batch_limit_cycles,
    batch_return_gaps,
    lane_block,
    lanes_from_configs,
    single_agent_covers,
    sparse_ring_covers,
)


class TestLockstep:
    test_matches_sparse_engine = case("kernel-lockstep")
    test_windowed_run_matches_stepping = case("kernel-lockstep/run")

    def test_visits_mark_arrivals(self):
        # Uniform clockwise pointers, one agent: node t visited at round t.
        n = 8
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0])])
        kernel = BatchRingKernel(n, ptr, cnt)
        for t in range(1, n):
            visits = kernel.step()
            assert list(np.flatnonzero(visits[0])) == [t]


class TestPaddedRows:
    """A round steps whole padded rows and leaves the padding zero."""

    test_rows_match_the_reference_in_lockstep = case("lane-block")


class TestCoverEquivalence:
    test_200_randomized_configurations = case("kernel-cover")

    def test_paper_corner_cases(self):
        n, k = 64, 4
        spaced = placement.equally_spaced(n, k)
        cases = [
            (pointers.ring_toward_node(n, 0), placement.all_on_one(k)),
            (pointers.ring_negative(n, spaced), spaced),
            (pointers.ring_positive(n, spaced), spaced),
            (pointers.ring_alternating(n), placement.half_ring(n, k)),
        ]
        ptr, cnt = lanes_from_configs(n, cases)
        covers = BatchRingKernel(n, ptr, cnt).run_until_covered(8 * n * n + 64)
        assert covers.tolist() == [oracle_cover(n, a, d) for d, a in cases]

    def test_initially_covered_lane(self):
        n = 5
        ptr, cnt = lanes_from_configs(n, [([1] * n, list(range(n)))])
        kernel = BatchRingKernel(n, ptr, cnt)
        assert int(kernel.cover_rounds[0]) == 0
        assert kernel.run_until_covered(10)[0] == 0

    def test_budget_strict_and_lenient(self):
        n = 32
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0])])
        with pytest.raises(RuntimeError):
            BatchRingKernel(n, ptr, cnt).run_until_covered(3)
        lenient = BatchRingKernel(n, ptr, cnt).run_until_covered(
            3, strict=False
        )
        assert int(lenient[0]) == -1


def _sparse_counters(n, lanes, max_rounds):
    """Covers and ``sparse.*`` counters of one ``sparse_ring_covers``
    call on ``(directions, agents)`` lanes."""
    telemetry = Telemetry()
    previous = set_active(telemetry)
    try:
        covers = sparse_ring_covers(
            n, *lanes_from_configs(n, lanes), max_rounds
        )
    finally:
        set_active(previous)
    return covers.tolist(), telemetry.counters


class TestSparseStepper:
    """``sparse_ring_covers`` on seeded grids (harness rows) and hand-built
    jumps; ``_SHORTEST_JUMP`` 1 takes every jump the bounds allow."""

    @staticmethod
    def _budget(n):
        return 16 * n * n + 1024

    test_seeded_grid_at_three_budgets = case("sparse")
    test_seeded_grid_with_jumps_of_every_length = case("sparse/every-jump")

    @staticmethod
    def _approaching(n, a, gap):
        """Agents at a, heading clockwise, and at a + gap, heading
        anticlockwise, with the pointers between them leading each
        agent on up to the middle of the gap."""
        b = a + gap
        directions = [1] * n
        for v in range(a + (gap + 1) // 2, b + 1):
            directions[v] = -1
        return directions, [a, b]

    @pytest.mark.parametrize(
        "gap, bound", [(1, 0), (2, 0), (3, 1), (17, 8), (18, 8), (19, 9)]
    )
    def test_approaching_pair(self, monkeypatch, gap, bound):
        monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", 1)
        n = 48
        directions, agents = self._approaching(n, 5, gap)
        bits = bytearray(d == 1 for d in directions)
        assert _jump_length(n, bits, agents, 10**6) == bound
        expected = [oracle_cover(n, agents, directions, self._budget(n))]
        covers, counters = _sparse_counters(
            n, [(directions, agents)], self._budget(n)
        )
        assert covers == expected
        assert counters["sparse.jumps"] >= (bound > 0)

    def test_follower_at_gap_one(self, monkeypatch):
        monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", 1)
        n = 20
        directions, agents = [1] * n, [6, 7]
        bits = bytearray(n * [1])
        # The follower may reach the node its leader left, no further.
        assert _jump_length(n, bits, agents, 10**6) == 1
        expected = [oracle_cover(n, agents, directions, self._budget(n))]
        covers, counters = _sparse_counters(
            n, [(directions, agents)], self._budget(n)
        )
        assert covers == expected
        assert counters["sparse.jumps"] >= 1

    @pytest.mark.parametrize("way", [1, -1])
    def test_jump_across_node_zero(self, way):
        # Clockwise: the agent at 30 runs 15 nodes across node 0 to
        # node 5, whose pointer sends it back; the agent at 10 runs 15
        # nodes of its 20-node gap alongside.  The anticlockwise lane is
        # the mirror image.
        n = 40
        directions = [1] * n
        directions[5] = -1
        agents = [30, 10]
        if way < 0:
            directions = [-directions[-v % n] for v in range(n)]
            agents = [-a % n for a in agents]
        bits = bytearray(d == 1 for d in directions)
        assert _jump_length(n, bits, sorted(agents), 10**6) == 15
        cover = oracle_cover(n, agents, directions, self._budget(n))
        for budget, want in ((self._budget(n), cover), (cover, cover),
                             (cover - 1, -1), (15, -1)):
            covers, counters = _sparse_counters(
                n, [(directions, agents)], budget
            )
            assert covers == [want]
            assert counters["sparse.jumps"] >= 1

    def test_cover_inside_a_jump_takes_the_longest_fresh_run(self):
        # Three clockwise agents at gaps 10, 11 and 10 on a 31-ring: one
        # 10-round jump covers the ring.  The middle agent reaches
        # unvisited nodes for all 10 rounds, the others for 9 (their
        # last step lands on a start node), so the cover is round 10.
        n = 31
        directions, agents = [1] * n, [0, 10, 21]
        assert oracle_cover(n, agents, directions) == 10
        covers, counters = _sparse_counters(n, [(directions, agents)], 100)
        assert covers == [10]
        assert (counters["sparse.jumps"], counters["sparse.jump_rounds"]) == (
            1, 10
        )
        assert sparse_ring_covers(
            n, *lanes_from_configs(n, [(directions, agents)]), 9
        ).tolist() == [-1]

    # Chunks can mix k = 1 lanes in (a ring away is a follower gap of n).
    test_single_agents_and_covered_lanes = case("single-agent")

    def test_lane_on_every_node_covers_at_round_zero(self):
        ptr, cnt = lanes_from_configs(5, [([1] * 5, [0, 1, 2, 3, 4, 4])])
        assert sparse_ring_covers(5, ptr, cnt, 0).tolist() == [0]

    def test_counters(self):
        n = 64
        lanes = [
            ([1] * n, [0, 32]),
            ([-1] * n, placement.all_on_one(3)),
        ]
        expected = [oracle_cover(n, a, d, 10**6) for d, a in lanes]
        budget = max(expected) - 1  # the slower lane truncates
        covers, counters = _sparse_counters(n, lanes, budget)
        assert covers == [min(expected), -1]
        assert counters["sparse.invocations"] == 1
        assert counters["sparse.lanes"] == 2
        assert counters["sparse.rounds"] == budget
        assert counters["sparse.lane_rounds"] == min(expected) + budget
        assert 0 < counters["sparse.jump_rounds"] <= counters[
            "sparse.lane_rounds"
        ]
        assert counters["sparse.jumps"] >= 1
        assert counters["sparse.lanes_covered"] == 1
        assert counters["sparse.lanes_truncated"] == 1

    def test_validates_like_the_kernel(self):
        with pytest.raises(ValueError, match="n >= 3"):
            sparse_ring_covers(2, np.ones((1, 2)), np.ones((1, 2)), 10)
        with pytest.raises(ValueError, match="at least one agent"):
            sparse_ring_covers(4, np.ones((1, 4)), np.zeros((1, 4)), 10)


class TestLimitBehaviour:
    def test_cycles_and_gaps_match_reference(self):
        # Four paper families on a 48-ring, cycle-start rows included.
        n, k = 48, 4
        spaced = placement.equally_spaced(n, k)
        assert_limits(n, [Start(n, tuple(d), tuple(a)) for d, a in (
            (pointers.ring_toward_node(n, 0), placement.all_on_one(k)),
            (pointers.ring_negative(n, spaced), spaced),
            (pointers.ring_positive(n, spaced), spaced),
            (pointers.ring_random(n, seed=3), placement.random_nodes(n, k, seed=3)),
        )])

    def test_theorem6_shape(self):
        # Return time is Θ(n/k): worst gap a small multiple of n/k.
        n, k = 60, 4
        agents = placement.all_on_one(k)
        dirs = pointers.ring_toward_node(n, 0)
        ptr, cnt = lanes_from_configs(n, [(dirs, agents)])
        cycles = batch_limit_cycles(n, ptr, cnt, 16 * n * n + 1024)
        worst, _ = batch_return_gaps(n, cycles)
        assert worst[0] <= 4 * n / k

    def test_budget_exhaustion_raises(self):
        n = 16
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0, 3])])
        with pytest.raises(RuntimeError):
            batch_limit_cycles(n, ptr, cnt, max_rounds=2)

    def test_lenient_budget_marks_unresolved_lanes(self):
        n = 16
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0, 3])])
        cycles = batch_limit_cycles(n, ptr, cnt, max_rounds=2, strict=False)
        assert int(cycles.periods[0]) == -1
        assert int(cycles.preperiods[0]) == -1
        with pytest.raises(ValueError):
            batch_return_gaps(n, cycles)

    def test_lenient_mode_resolves_what_fits(self):
        # One instant-cycle lane and one whose search exceeds the budget
        # of 2n rounds, enough for the spaced patrol, not the worst case.
        n, k = 24, 4
        spaced = placement.equally_spaced(n, k)
        easy = (pointers.ring_positive(n, spaced), spaced)
        hard = (pointers.ring_toward_node(n, 0), placement.all_on_one(k))
        ptr, cnt = lanes_from_configs(n, [easy, hard])
        cycles = batch_limit_cycles(n, ptr, cnt, 2 * n, strict=False)
        ref = oracle_limit(n, *easy[::-1])
        assert cycles.periods.tolist() == [ref.period, -1]
        assert int(cycles.preperiods[0]) == ref.preperiod


class TestRandomizedLimitEquivalence:
    test_100_plus_family_configurations = case("limit")
    test_single_agents_lock_in = case("lock-in")
    test_cycles_hold_past_the_reference_sizes = case("limit/self-check")

    def test_truncation_lanes_mix_exactly(self):
        """strict=False: lanes inside the budget (3n rounds, enough for the
        patrol only) match the reference, lanes beyond it report -1."""
        n, k = 24, 4
        spaced = placement.equally_spaced(n, k)
        fast = (pointers.ring_positive(n, spaced), spaced)
        slow = (pointers.ring_toward_node(n, 0), placement.all_on_one(k))
        ptr, cnt = lanes_from_configs(n, [fast, slow, fast, slow])
        cycles = batch_limit_cycles(n, ptr, cnt, 3 * n, strict=False)
        ref = oracle_limit(n, *fast[::-1])
        assert cycles.preperiods.tolist() == [ref.preperiod, -1] * 2
        assert cycles.periods.tolist() == [ref.period, -1] * 2
        # Resolved lanes still produce exact gaps after slicing.
        resolved = cycles.take(np.flatnonzero(cycles.periods > 0))
        worst, best = batch_return_gaps(n, resolved)
        assert (worst.tolist(), best.tolist()) == ([ref.worst] * 2, [ref.best] * 2)

    test_wide_count_dtypes_match_reference = case("limit/int16")

    def test_truncated_lanes_resolve_exactly_with_budget(self):
        """The same lanes that truncate resolve exactly once the
        budget allows — truncation is a budget fact, not corruption."""
        n, k = 24, 4
        slow = (pointers.ring_toward_node(n, 0), placement.all_on_one(k))
        ptr, cnt = lanes_from_configs(n, [slow])
        short = batch_limit_cycles(n, ptr, cnt, 3 * n, strict=False)
        assert int(short.periods[0]) == -1
        full = batch_limit_cycles(n, ptr, cnt, 16 * n * n + 1024)
        ref = oracle_limit(n, *slow[::-1])
        assert (int(full.preperiods[0]), int(full.periods[0])) == (ref.preperiod, ref.period)


class TestFingerprintCollisions:
    """Degenerate fingerprint weights force collisions; the byte-level
    confirmation must still deliver the true minimal period/preperiod."""

    test_all_zero_weights_collide_every_round = case("limit/zero-weights")
    test_count_blind_weights_collide_on_count_changes = case(
        "limit/count-blind-weights"
    )

    def test_weight_shape_validation(self):
        n = 24
        ptr, cnt = lanes_from_configs(
            n, [(pointers.ring_uniform(n), [0, 1])]
        )
        bad = np.zeros(1, dtype=np.uint64)
        good = np.zeros(fingerprint_words(n), dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_limit_cycles(
                n, ptr, cnt, 100, _fingerprint_weights=(bad, good)
            )


class TestCompaction:
    test_results_invariant_across_ratios = case("compaction")

    def test_ratio_is_read_at_call_time(self, monkeypatch, tmp_path):
        # Patching the module constant reaches both Brent phases and
        # the cover driver: a ratio of 0 never compacts, 1 compacts on
        # every resolution, so the cover run steps fewer rows.
        n = 32
        budget = 16 * n * n + 1024
        ptr, cnt = lanes(family_starts(n)[:40])
        _, (mixed_ptr, mixed_cnt) = mixed_cover_block(n)
        compactions, lane_rounds = {}, {}
        for ratio in (0.0, 1.0):
            monkeypatch.setattr(batch_ring, "COMPACT_RATIO", ratio)
            path = str(tmp_path / f"limit-{ratio}.jsonl")
            with trace_session(path):
                batch_limit_cycles(n, ptr, cnt, budget)
                BatchRingKernel(n, mixed_ptr, mixed_cnt).run_until_covered(
                    budget
                )
            counters = load_manifest(path)["counters"]
            compactions[ratio] = counters.get("limit.compactions", 0)
            lane_rounds[ratio] = counters["ring.lane_rounds"]
        assert compactions[0.0] == 0 < compactions[1.0]
        assert lane_rounds[1.0] < lane_rounds[0.0]


class TestLimitCounters:
    @pytest.mark.parametrize("weights", ["default", "count-blind"])
    def test_counters_add_up_to_the_rows_stepped(
        self, monkeypatch, tmp_path, weights
    ):
        # ``limit.lane_rounds`` is every row the search stepped: phase 1,
        # the hare advance and phase 2, counted here by wrapping the two
        # block steppers; hits split into confirmations and collisions
        # (count-blind weights force some), and lanes into resolved and
        # truncated ones (a budget of 8n cuts some off).
        n = 24
        ptr, cnt = lanes(family_starts(n)[::3])
        stepped = []
        step_all, step_prefix = LaneBlock.step_all, LaneBlock.step_prefix

        def counted_all(block):
            stepped.append(block.rows)
            step_all(block)

        def counted_prefix(block, a):
            stepped.append(a)
            step_prefix(block, a)

        monkeypatch.setattr(LaneBlock, "step_all", counted_all)
        monkeypatch.setattr(LaneBlock, "step_prefix", counted_prefix)
        words = fingerprint_words(n)
        blind = np.random.default_rng(5).integers(
            0, 2**64, size=words, dtype=np.uint64
        )
        path = str(tmp_path / "limit.jsonl")
        with trace_session(path):
            cycles = batch_limit_cycles(
                n, ptr, cnt, 8 * n, strict=False,
                _fingerprint_weights=(
                    None if weights == "default"
                    else (blind, np.zeros(words, np.uint64))
                ),
            )
        counters = load_manifest(path)["counters"]
        assert counters["limit.lane_rounds"] == sum(stepped)
        collisions = counters["limit.fp_collisions"]
        hits = counters["limit.fp_hits"]
        assert collisions == hits - counters["limit.fp_confirmed"]
        assert (collisions > 0) == (weights == "count-blind")
        resolved = counters["limit.lanes_resolved"]
        truncated = counters["limit.lanes_truncated"]
        assert resolved + truncated == counters["limit.lanes"] == len(ptr)
        assert truncated == np.count_nonzero(cycles.periods < 0) > 0
        assert resolved > 0


class TestPositions:
    def test_multiplicity_and_order(self):
        n = 6
        ptr, cnt = lanes_from_configs(
            n, [(pointers.ring_uniform(n), [4, 0, 2, 0, 0])]
        )
        kernel = BatchRingKernel(n, ptr, cnt)
        assert kernel.positions(0) == [0, 0, 0, 2, 4]


class TestValidation:
    def test_min_ring_size(self):
        with pytest.raises(ValueError):
            BatchRingKernel(2, np.ones((1, 2)), np.ones((1, 2)))

    def test_pointer_values(self):
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.zeros((1, 4)), np.ones((1, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((1, 4)), np.ones((2, 4)))

    def test_agentless_lane(self):
        counts = np.zeros((2, 4))
        counts[0, 0] = 1
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((2, 4)), counts)

    def test_negative_counts(self):
        counts = np.ones((1, 4))
        counts[0, 1] = -1
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((1, 4)), counts)

    def test_negative_rounds(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0])])
        kernel = BatchRingKernel(4, ptr, cnt)
        with pytest.raises(ValueError, match="non-negative"):
            kernel.run(-1)
        assert kernel.round == 0

    def test_limit_budget_must_be_positive(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0])])
        for max_rounds in (0, -3):
            with pytest.raises(ValueError, match="must be positive"):
                batch_limit_cycles(4, ptr, cnt, max_rounds)

    def test_closed_form_takes_single_agent_lanes_only(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0]), ([1] * 4, [0, 2])])
        with pytest.raises(ValueError, match="exactly one agent"):
            single_agent_covers(4, ptr, cnt, 100)
        with pytest.raises(ValueError, match="n >= 3"):
            single_agent_covers(2, np.ones((1, 2)), np.eye(1, 2), 100)
        assert single_agent_covers(4, ptr[:1], cnt[:1], 100).tolist() == [3]

    def test_dtype_escalation_preserves_totals(self):
        # k > 126 forces int16 lanes; conservation must survive.
        n, k = 8, 500
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0] * k)])
        assert lane_block(n, ptr, cnt).cnt.dtype == np.int16
        kernel = BatchRingKernel(n, ptr, cnt)
        kernel.run(50)
        assert int(kernel.counts_lane(0).sum()) == k

    def test_lanes_from_configs_validation(self):
        with pytest.raises(ValueError):
            lanes_from_configs(4, [])
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1, 1, 1], [0])])  # wrong length
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1] * 4, [])])  # no agents
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1] * 4, [9])])  # out of range
