"""Batch walk kernel: seed-for-seed equivalence with RingRandomWalks."""

import pytest

from differential import Walk, case, walk_run
from repro.randomwalk import ring_walk
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep.batch_walk import (
    BatchRingWalks,
    WalkLane,
    walk_lanes_from_cells,
)


class TestReferenceEquivalence:
    # 120 seeded (n, k, placement) lanes reproduce RingRandomWalks
    # exactly for the same seeds, not merely in distribution.
    test_cover_rounds_match_reference_on_randomized_configs = case("walk")

    def test_first_visit_rounds_match_reference(self):
        n, positions, seed = 24, (3, 17), 123
        batch = BatchRingWalks(n, [WalkLane(positions, seed)])
        batch.run_until_covered(64 * n * n)
        first = walk_run(Walk(n, positions, seed), 64 * n * n)[1]
        assert tuple(batch.first_visit[0].tolist()) == first

    def test_mixed_walker_counts_in_one_batch(self):
        # The walker axis is ragged: lanes with different k coexist.
        n = 20
        lanes = [WalkLane((0,), 1), WalkLane((0, 5, 10, 15), 2)]
        covers = BatchRingWalks(n, lanes).run_until_covered(64 * n * n)
        assert covers.tolist() == [
            walk_run(Walk(n, lane.positions, lane.seed), 64 * n * n)[0]
            for lane in lanes
        ]

    def test_partial_final_block_stays_aligned(self, monkeypatch):
        # A max_rounds that is not a multiple of block_size truncates
        # the last block in both implementations identically.
        n, positions, seed = 16, (0,), 5
        max_rounds = 100
        monkeypatch.setattr(ring_walk, "BLOCK_SIZE", 32)
        batch = BatchRingWalks(n, [WalkLane(positions, seed)])
        covers = batch.run_until_covered(max_rounds, strict=False)
        reference = RingRandomWalks(
            n, positions, seed=seed, block_size=32
        )
        try:
            expected = reference.run_until_covered(max_rounds)
        except RuntimeError:
            expected = -1
        assert int(covers[0]) == expected

    def test_block_size_is_read_at_construction(self, monkeypatch):
        # The kernel takes ring_walk.BLOCK_SIZE when it is built:
        # patching it afterwards no longer changes the block cadence,
        # and either cadence matches the reference driven with it.
        n, rounds = 16, 100
        lanes = [WalkLane((0, 3), 7), WalkLane((5,), 8)]
        for block in (8, 32):
            monkeypatch.setattr(ring_walk, "BLOCK_SIZE", block)
            batch = BatchRingWalks(n, lanes)
            monkeypatch.setattr(ring_walk, "BLOCK_SIZE", 1024)
            batch.run(rounds)
            assert batch.block_size == block
            assert batch._blocks == -(-rounds // block)
            for b, lane in enumerate(lanes):
                reference = RingRandomWalks(
                    n, lane.positions, seed=lane.seed, block_size=block
                )
                reference.run(rounds)
                assert batch.positions_lane(b) == reference.positions.tolist()


class TestCoverDetection:
    def test_initially_covered_lane_reports_zero(self):
        n = 8
        lanes = [WalkLane(tuple(range(n)), 0), WalkLane((0,), 0)]
        batch = BatchRingWalks(n, lanes)
        covers = batch.run_until_covered(64 * n * n)
        assert covers[0] == 0
        assert covers[1] > 0

    def test_covered_lanes_stop_drawing(self):
        # After a lane covers, its generator is never consumed again —
        # the remaining lanes still match their standalone runs.
        n = 12
        lanes = [WalkLane(tuple(range(n)), 3), WalkLane((0, 6), 4)]
        covers = BatchRingWalks(n, lanes).run_until_covered(64 * n * n)
        assert int(covers[1]) == walk_run(Walk(n, (0, 6), 4), 64 * n * n)[0]

    def test_strict_truncation_raises(self):
        batch = BatchRingWalks(16, [WalkLane((0,), 0)])
        with pytest.raises(RuntimeError):
            batch.run_until_covered(2)

    def test_nonstrict_truncation_reports_minus_one(self):
        batch = BatchRingWalks(16, [WalkLane((0,), 0)])
        covers = batch.run_until_covered(2, strict=False)
        assert covers[0] == -1

    def test_run_advances_all_lanes(self):
        batch = BatchRingWalks(16, [WalkLane((0,), 0), WalkLane((8,), 1)])
        batch.run(10)
        assert batch.round == 10
        assert len(batch.positions_lane(0)) == 1
        assert batch.unvisited_lane(0) < 16


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            BatchRingWalks(2, [WalkLane((0,), 0)])
        with pytest.raises(ValueError):
            BatchRingWalks(8, [])
        with pytest.raises(ValueError):
            BatchRingWalks(8, [WalkLane((), 0)])
        with pytest.raises(ValueError):
            BatchRingWalks(8, [WalkLane((9,), 0)])
        with pytest.raises(ValueError):
            BatchRingWalks(8, [WalkLane((0,), 0)]).run(-1)


class TestLaneFanOut:
    def test_cells_expand_to_slices(self):
        lanes, slices = walk_lanes_from_cells(
            [((0, 1), (10, 11, 12)), ((3,), (20,))]
        )
        assert len(lanes) == 4
        assert slices == [(0, 3), (3, 4)]
        assert lanes[0] == WalkLane(positions=(0, 1), seed=10)
        assert lanes[3] == WalkLane(positions=(3,), seed=20)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            walk_lanes_from_cells([((0,), ())])
