"""Tests for the analysis→sweep bridge (repro.analysis.backend).

The batch and reference backends both reproduce the oracle of the
differential harness (``tests/differential.py``) bit for bit, on its
seeded grid of cover, return/stabilization and seed-for-seed walk
requests and on general graphs (the ``plan*`` rows); the rest pins
kernel routing, caching and the plan lifecycle.
"""

import os

import pytest

from differential import case
from repro.analysis.backend import MeasurementPlan
from repro.analysis.cover_time import ring_rotor_cover_time
from repro.core import placement as placement_mod
from repro.graphs import ring_graph
from repro.sweep.cells import RotorCell
from repro.sweep.executor import _compute_rotor_chunk, _prefer_sparse_covers
from repro.sweep.spec import POINTERS


def _cover_cell(n, agents, max_rounds):
    return RotorCell(
        n=n,
        agents=tuple(agents),
        directions=tuple(POINTERS["negative"](n, agents, 0)),
        metrics=("cover",),
        max_rounds=max_rounds,
    )


class TestBackendEquivalenceGrid:
    """batch == reference over a randomized >=100-config grid."""

    test_cover_return_stabilization_and_walk_lanes = case("plan")

    def test_cover_kernel_selection_is_identity_neutral(self):
        # The executor routes sparse cover chunks (Σk < n) to the
        # straight-run stepper and dense ones to the batch ring kernel;
        # both must reproduce the serial cover times exactly.
        n = 64
        max_rounds = 8 * n * n + 64
        cells = [
            _cover_cell(n, placement_mod.equally_spaced(n, k), max_rounds)
            for k in (2, 4, 8, 16, 32, 64)
        ]
        sparse, dense = cells[:2], cells  # Σk = 6 and 126
        assert _prefer_sparse_covers(n, sparse)
        assert not _prefer_sparse_covers(n, dense)
        for chunk in (sparse, dense):
            out = _compute_rotor_chunk(chunk)
            expected = [
                ring_rotor_cover_time(
                    n, list(cell.agents), list(cell.directions)
                )
                for cell in chunk
            ]
            assert out == [
                (cell.config_hash, {"cover": cover})
                for cell, cover in zip(chunk, expected)
            ]

    def test_truncated_sparse_chunk_reports_none(self):
        n = 64
        placements = ([0], [0, 32])
        covers = [
            ring_rotor_cover_time(n, agents, POINTERS["negative"](n, agents, 0))
            for agents in placements
        ]
        budget = max(covers) - 1  # the lone agent truncates, the pair covers
        cells = [_cover_cell(n, agents, budget) for agents in placements]
        assert _prefer_sparse_covers(n, cells)
        out = _compute_rotor_chunk(cells)
        assert out == [
            (cells[0].config_hash, {"cover": None}),
            (cells[1].config_hash, {"cover": covers[1]}),
        ]

    def test_matches_legacy_serial_functions(self):
        # The reference backend is not a reimplementation: spot-check
        # the batch backend directly against the original serial calls.
        plan = MeasurementPlan(backend="batch")
        n, k = 48, 4
        agents = placement_mod.equally_spaced(n, k)
        directions = POINTERS["negative"](n, agents, 0)
        handle = plan.rotor_cover(n, agents, directions)
        plan.execute()
        assert handle.value == ring_rotor_cover_time(n, agents, directions)


class TestWalkGaps:
    def test_batch_equals_reference(self):
        kwargs = dict(n=32, k=3, node=2, observation_rounds=40 * 32,
                      burn_in=64, seed=5)
        values = {}
        for backend in ("batch", "reference"):
            plan = MeasurementPlan(backend=backend)
            handle = plan.walk_gaps(**kwargs)
            plan.execute()
            values[backend] = handle.value
        assert values["batch"] == values["reference"]


class TestGeneralGraphs:
    test_batch_equals_reference_and_serial = case("plan/general")


class TestCachingAndStats:
    def _schedule(self, plan):
        handles = [
            plan.rotor_cover(
                16, [0, 0], POINTERS["toward_node0"](16, [0, 0], 0)
            ),
            plan.rotor_return_exact(
                16, [0, 8], POINTERS["negative"](16, [0, 8], 0)
            ),
            plan.walk_cover(16, [0, 8], repetitions=2, base_seed=9),
        ]
        return handles

    def test_second_execution_fully_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = MeasurementPlan(backend="batch", cache_dir=cache)
        handles_first = self._schedule(first)
        stats_first = first.execute()
        assert stats_first.computed == 3
        assert stats_first.cached == 0

        second = MeasurementPlan(backend="batch", cache_dir=cache)
        handles_second = self._schedule(second)
        stats_second = second.execute()
        assert stats_second.computed == 0
        assert stats_second.cached == 3
        assert handles_second[0].value == handles_first[0].value
        assert handles_second[1].value == handles_first[1].value
        assert handles_second[2].value.samples == handles_first[2].value.samples

    def test_reference_backend_never_caches(self, tmp_path):
        cache = str(tmp_path / "refcache")
        plan = MeasurementPlan(backend="reference", cache_dir=cache)
        self._schedule(plan)
        plan.execute()
        assert not os.path.exists(cache)

    def test_duplicate_requests_collapse(self):
        plan = MeasurementPlan()
        directions = POINTERS["toward_node0"](16, [0], 0)
        a = plan.rotor_cover(16, [0], directions)
        b = plan.rotor_cover(16, [0], directions)
        assert plan.num_cells == 1
        stats = plan.execute()
        assert stats.computed == 1
        assert a.value == b.value

    def test_summary_line_format(self):
        plan = MeasurementPlan()
        plan.rotor_cover(16, [0], POINTERS["uniform"](16, [0], 0))
        stats = plan.execute()
        line = stats.summary_line()
        assert "computed=1" in line
        assert "cached=0" in line

    def test_parallel_execution_matches(self, chunk_lanes):
        serial = MeasurementPlan(backend="batch", jobs=1)
        parallel = MeasurementPlan(backend="batch", jobs=2)
        pairs = []
        for k in (1, 2, 3, 4):
            agents = placement_mod.equally_spaced(24, k)
            directions = POINTERS["negative"](24, agents, 0)
            pairs.append(
                (
                    serial.rotor_cover(24, agents, directions),
                    parallel.rotor_cover(24, agents, directions),
                )
            )
        serial.execute()
        chunk_lanes(2)
        parallel.execute()
        for s, p in pairs:
            assert s.value == p.value


class TestPlanLifecycle:
    def test_value_before_execute_raises(self):
        plan = MeasurementPlan()
        handle = plan.rotor_cover(16, [0], POINTERS["uniform"](16, [0], 0))
        with pytest.raises(RuntimeError, match="execute"):
            handle.value

    def test_schedule_after_execute_raises(self):
        plan = MeasurementPlan()
        plan.rotor_cover(16, [0], POINTERS["uniform"](16, [0], 0))
        plan.execute()
        with pytest.raises(RuntimeError, match="already executed"):
            plan.rotor_cover(16, [0], POINTERS["alternating"](16, [0], 0))

    def test_execute_idempotent(self):
        plan = MeasurementPlan()
        plan.rotor_cover(16, [0], POINTERS["uniform"](16, [0], 0))
        assert plan.execute() is plan.execute()

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            MeasurementPlan(backend="gpu")
        with pytest.raises(ValueError, match="jobs"):
            MeasurementPlan(jobs=-1)
        plan = MeasurementPlan()
        with pytest.raises(ValueError, match="repetitions"):
            plan.walk_cover(16, [0], repetitions=0)
        with pytest.raises(RuntimeError, match="not executed"):
            plan.stats

    @pytest.mark.parametrize("backend", ["batch", "reference"])
    @pytest.mark.parametrize(
        "n, agents, directions, max_rounds, message",
        [
            (16, [0], [1] * 15 + [0], None, r"\+1 or -1, got 0"),
            (16, [20], [1] * 16, None, r"\[0, 16\)"),
            (2, [0], [1, 1], None, "at least 3 nodes"),
            (16, [0], [1] * 16, 0, "max_rounds must be positive, got 0"),
            (16, [0], [1] * 16, -5, "max_rounds must be positive, got -5"),
        ],
        ids=[
            "direction", "agent-off-ring", "tiny-ring",
            "zero-budget", "negative-budget",
        ],
    )
    def test_rotor_cover_rejects_malformed_cell(
        self, backend, n, agents, directions, max_rounds, message
    ):
        # Rejected at the request, before any kernel runs.
        plan = MeasurementPlan(backend=backend)
        with pytest.raises(ValueError, match=message):
            plan.rotor_cover(n, agents, directions, max_rounds=max_rounds)
        assert plan.num_cells == 0

    @pytest.mark.parametrize("backend", ["batch", "reference"])
    @pytest.mark.parametrize(
        "request_cell, message",
        [
            (
                lambda plan: plan.walk_cover(8, [8], repetitions=2),
                r"\[0, 8\) on the ring",
            ),
            (
                lambda plan: plan.walk_cover(8, [0, -1], repetitions=2),
                r"\[0, 8\) on the ring, got -1\.\.0",
            ),
            (
                lambda plan: plan.walk_cover(2, [0], repetitions=2),
                "at least 3 nodes",
            ),
            (
                lambda plan: plan.rotor_cover_general(
                    ring_graph(8), [8], [0] * 8
                ),
                r"\[0, 8\) on the graph",
            ),
            (
                lambda plan: plan.rotor_cover_general(
                    ring_graph(8), [-1], [0] * 8
                ),
                r"\[0, 8\) on the graph, got -1\.\.-1",
            ),
            (
                lambda plan: plan.rotor_cover_general(
                    ring_graph(8), [0], [5] * 8
                ),
                "pointer 5 at node 0 out of range for degree 2",
            ),
            (
                lambda plan: plan.rotor_cover_general(
                    ring_graph(8), [0], [0] * 7 + [-1]
                ),
                "pointer -1 at node 7 out of range for degree 2",
            ),
            (
                lambda plan: plan.walk_cover(
                    8, [0], repetitions=2, max_rounds=0
                ),
                "max_rounds must be positive, got 0",
            ),
            (
                lambda plan: plan.walk_gaps(2, 1, 0, observation_rounds=8),
                "at least 3 nodes",
            ),
            (
                lambda plan: plan.rotor_cover_general(
                    ring_graph(8), [0], [0] * 8, max_rounds=-1
                ),
                "max_rounds must be positive, got -1",
            ),
        ],
        ids=[
            "walk-agent-off-ring", "walk-agent-negative", "walk-tiny-ring",
            "general-agent-off-graph", "general-agent-negative",
            "general-port-off-degree", "general-port-negative",
            "walk-zero-budget", "gaps-tiny-ring", "general-negative-budget",
        ],
    )
    def test_walk_and_general_reject_malformed_cell(
        self, backend, request_cell, message
    ):
        # Rejected at the request, before any kernel runs.
        plan = MeasurementPlan(backend=backend)
        with pytest.raises(ValueError, match=message):
            request_cell(plan)
        assert plan.num_cells == 0
