"""Tests for the analysis→sweep bridge (repro.analysis.backend).

The centerpiece is the randomized backend-equivalence grid: >= 100
configurations across n, k, placement and pointer families, asserting
the batch backend reproduces the reference (serial) backend
bit-identically for cover, return and stabilization cells, including
seed-for-seed walk repetition lanes.
"""

import os

import pytest

from repro.analysis.backend import MeasurementPlan
from repro.analysis.cover_time import (
    ring_rotor_cover_time,
    rotor_cover_time_general,
)
from repro.core import placement as placement_mod
from repro.core.pointers import random_ports
from repro.graphs import clique, grid_2d, ring_graph
from repro.sweep.cells import RotorCell
from repro.sweep.executor import _compute_rotor_chunk, _prefer_sparse_covers
from repro.sweep.spec import PLACEMENTS, POINTERS
from repro.util.rng import derive_seed, make_rng

PLACEMENT_NAMES = sorted(PLACEMENTS)
POINTER_NAMES = sorted(POINTERS)


def _random_rotor_instance(rng):
    """One random (n, agents, directions) across the named families."""
    n = int(rng.choice((8, 12, 16, 24, 32, 48)))
    k = int(rng.integers(1, 7))
    placement_name = PLACEMENT_NAMES[int(rng.integers(len(PLACEMENT_NAMES)))]
    pointer_name = POINTER_NAMES[int(rng.integers(len(POINTER_NAMES)))]
    seed = int(rng.integers(0, 2**31))
    agents = PLACEMENTS[placement_name](n, k, seed)
    directions = POINTERS[pointer_name](n, agents, seed)
    return n, agents, directions


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

    def test_cover_return_stabilization_and_walk_lanes(self):
        rng = make_rng(20260728)
        batch = MeasurementPlan(backend="batch")
        reference = MeasurementPlan(backend="reference")

        cover_pairs = []
        for _ in range(80):
            n, agents, directions = _random_rotor_instance(rng)
            cover_pairs.append(
                (
                    batch.rotor_cover(n, agents, directions),
                    reference.rotor_cover(n, agents, directions),
                )
            )

        return_pairs = []
        for _ in range(30):
            n, agents, directions = _random_rotor_instance(rng)
            if n > 32:
                n = 32
                agents = [a % n for a in agents]
                directions = directions[:n]
            return_pairs.append(
                (
                    batch.rotor_return_exact(n, agents, directions),
                    reference.rotor_return_exact(n, agents, directions),
                )
            )

        walk_pairs = []
        for index in range(16):
            n = int(rng.choice((8, 16, 24)))
            k = int(rng.integers(1, 5))
            repetitions = int(rng.integers(1, 4))
            base_seed = derive_seed(7, "equiv-walk", index)
            agents = placement_mod.random_nodes(
                n, k, seed=int(rng.integers(0, 2**31))
            )
            walk_pairs.append(
                (
                    batch.walk_cover(n, agents, repetitions, base_seed),
                    reference.walk_cover(n, agents, repetitions, base_seed),
                )
            )

        total = len(cover_pairs) + len(return_pairs) + len(walk_pairs)
        assert total >= 100
        batch.execute()
        reference.execute()

        for b, r in cover_pairs:
            assert b.value == r.value  # exact ints
        for b, r in return_pairs:
            # Stabilization (preperiod/period) and return gaps,
            # bit-identical.
            assert b.value.preperiod == r.value.preperiod
            assert b.value.period == r.value.period
            assert b.value.worst_gap == r.value.worst_gap
            assert b.value.best_gap == r.value.best_gap
        for b, r in walk_pairs:
            # Seed-for-seed: the raw repetition samples agree, hence
            # every derived statistic does too.
            assert b.value.samples == r.value.samples
            assert b.value.mean == r.value.mean
            assert b.value.ci_low == r.value.ci_low
            assert b.value.ci_high == r.value.ci_high

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
    def test_batch_equals_reference_and_serial(self):
        graphs = [ring_graph(24), grid_2d(5, 5), clique(12)]
        batch = MeasurementPlan(backend="batch")
        reference = MeasurementPlan(backend="reference")
        triples = []
        for index, graph in enumerate(graphs):
            rng = make_rng(derive_seed(3, "general", index))
            agents = [int(rng.integers(0, graph.num_nodes)) for _ in range(3)]
            ports = random_ports(graph, rng)
            triples.append(
                (
                    graph, agents, ports,
                    batch.rotor_cover_general(graph, agents, ports),
                    reference.rotor_cover_general(graph, agents, ports),
                )
            )
        batch.execute()
        reference.execute()
        for graph, agents, ports, b, r in triples:
            serial = rotor_cover_time_general(graph, agents, ports)
            assert b.value == serial
            assert r.value == serial


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
