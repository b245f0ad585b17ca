"""Scheduling never changes a result: cadences, fusion and ``jobs``.

The ``kernel-cover/*``, ``kernel-run/split``, ``limit/budgets`` and
``walk/fusion`` rows of ``tests/differential.py`` hold the windowed
cover driver, ``run``, Brent's search and walk fusion to the reference
at every ``COMPACT_RATIO``, ``_WINDOW`` and ``FUSE_ROUNDS``.  A
``jobs=2`` sweep equals the serial one result for result and kernel
counter for kernel counter and reruns from its cache; a chunk payload
computes the same after a pickle round trip, and at ``jobs=1`` without
hashing its cells again.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from differential import brent_rounds, case
from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.graphs.base import GraphCSR
from repro.randomwalk import ring_walk
from repro.sweep import batch_walk
from repro.sweep import cells as cells_module
from repro.sweep import spec as spec_module
from repro.sweep.batch_ring import BatchRingKernel, batch_limit_cycles
from repro.sweep.batch_walk import BatchRingWalks, WalkLane
from repro.sweep.cells import RotorCell, WalkCoverCell, WalkGapsCell
from repro.sweep.executor import _plan_chunks, compute_chunk, run_sweep
from repro.sweep.registry import scenario
from repro.sweep.spec import InitFamily, ScenarioSpec

FUSE_GRID = (1, 7, 64)


class TestRingWindowedCover:
    """Windowed ring cover runs match the reference bit for bit."""

    test_cover_and_final_state_match_stepping = case("kernel-cover/ratios")
    test_run_matches_stepping = case("kernel-run/split")

    def test_cover_inside_a_window_is_exact(self):
        # A single rotor walker fighting outward-pointing rotors covers
        # the n=40 ring at round 780, inside a window (at 8 rounds, the
        # 98th: rounds 777..784).  The window's history must pin the
        # exact round, not the window boundary the lane was first
        # *detected* covered at.
        n = 40
        pointers = np.array(
            [[1 if i < n // 2 else -1 for i in range(n)]], dtype=np.int64
        )
        counts = np.zeros((1, n), dtype=np.int64)
        counts[0, n // 2] = 1
        kernel = BatchRingKernel(n, pointers, counts)
        np.testing.assert_array_equal(
            kernel.run_until_covered(10_000), [780]
        )
        windows = -(-780 // BatchRingKernel._WINDOW)
        assert kernel._epochs == windows
        assert kernel.round == windows * BatchRingKernel._WINDOW
        stepped = BatchRingKernel(n, pointers, counts)
        for _ in range(780):
            stepped.step()
        assert int(stepped.cover_rounds[0]) == 780

    test_covers_do_not_depend_on_the_window = case("kernel-cover/windows")


class TestLimitCompaction:
    """Brent's search resolves reference cycles at every compaction ratio."""

    test_periods_and_preperiods_match_reference = case("limit/budgets")

    def test_budget_is_exact_at_the_search_length(self):
        # A lane resolves with a budget of exactly the rounds its
        # search steps and truncates one round short of it.
        n = 24
        pointers = np.array([[1] * (n // 2) + [-1] * (n // 2)])
        counts = np.zeros((1, n), dtype=np.int64)
        counts[0, [0, 5, 6]] = 1
        ref = ring_rotor_return_time_exact(
            n, [0, 5, 6], pointers[0].tolist()
        )
        rounds = brent_rounds(ref.preperiod, ref.period)
        exact = batch_limit_cycles(n, pointers, counts, rounds)
        assert int(exact.preperiods[0]) == ref.preperiod
        assert int(exact.periods[0]) == ref.period
        short = batch_limit_cycles(
            n, pointers, counts, rounds - 1, strict=False
        )
        assert int(short.periods[0]) == -1
        assert int(short.preperiods[0]) == -1


class TestWalkFusionEquivalence:
    """Fused walk epochs draw the same streams, visit for visit."""

    test_visit_tables_match_across_fusion = case("walk/fusion")

    def test_epochs_follow_the_module_constant(self, monkeypatch):
        # The kernel reads FUSE_ROUNDS at call time: a fused epoch is
        # FUSE_ROUNDS blocks while the element budget allows it.
        lanes = [WalkLane((0, 3), seed=7), WalkLane((5,), seed=8)]
        rounds = 1000
        monkeypatch.setattr(ring_walk, "BLOCK_SIZE", 8)
        for fuse in FUSE_GRID:
            monkeypatch.setattr(batch_walk, "FUSE_ROUNDS", fuse)
            walks = BatchRingWalks(16, lanes)
            walks.run(rounds)
            assert walks.round == rounds
            assert walks._epochs == -(-rounds // (fuse * walks.block_size))


# ---------------------------------------------------- parallel sweeps


def _mixed_spec(**overrides):
    base = dict(
        name="fused-test",
        ns=(16, 24),
        ks=(2, 3),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
        models=("rotor", "walk"),
        repetitions=2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestParallelEquivalence:
    # Ring, walk and general cells of every kind at jobs 1 and 2: equal
    # results and equal ring.* and walk.* kernel counters.
    test_jobs2_matches_serial = case("run-cells")

    def test_jobs2_stabilization_matches_serial(self, chunk_lanes):
        # Stabilization chunks always take the dense ring kernel and
        # the limit-cycle pipeline (sparse cover chunks run the CSR
        # kernel instead), so workers build their own lane slabs here.
        spec = _mixed_spec(
            metrics=("stabilization",), models=("rotor",), repetitions=1
        )
        chunk_lanes(3)
        parallel = run_sweep(spec, jobs=2)
        serial = run_sweep(spec, jobs=1)
        for ours, theirs in zip(parallel.results, serial.results):
            assert ours.metrics == theirs.metrics

    def test_jobs2_general_cells_match_serial(self):
        # General cells carry their CSR pickled; at jobs=2 the quick
        # grid splits into several chunks, and two of them share a
        # graph, so one graph crosses the pipe in both payloads.
        spec = scenario("general_speedup", quick=True)
        chunks = _plan_chunks(spec.configs(), jobs=2)
        assert len(chunks) >= 2
        digests = [
            {cell.graph_digest for cell in chunk["cells"]} for chunk in chunks
        ]
        assert any(
            digests[i] & digests[j]
            for i in range(len(digests))
            for j in range(i + 1, len(digests))
        )
        parallel = run_sweep(spec, jobs=2)
        serial = run_sweep(spec, jobs=1)
        assert [r.config for r in parallel.results] == [
            r.config for r in serial.results
        ]
        for ours, theirs in zip(parallel.results, serial.results):
            assert ours.metrics == theirs.metrics
            assert not ours.failed

    def test_jobs2_rerun_is_fully_cached(self, tmp_path, chunk_lanes):
        spec = _mixed_spec()
        cache_dir = str(tmp_path / "cache")
        chunk_lanes(3)
        first = run_sweep(spec, jobs=2, cache_dir=cache_dir)
        assert first.cache_hits == 0
        rerun = run_sweep(spec, jobs=2, cache_dir=cache_dir)
        assert rerun.cache_misses == 0
        assert rerun.cache_hits == len(
            {cell.config.config_hash for cell in first.results}
        )
        for ours, theirs in zip(rerun.results, first.results):
            assert ours.metrics == theirs.metrics


class TestChunkPayloads:
    """A chunk is its cells, whatever ``jobs`` is."""

    def test_ring_and_walk_plans_do_not_depend_on_jobs(self, chunk_lanes):
        # The n = 32 group is wider than a block, so at the default
        # constants its dense blocks merge into one chunk.
        wide = _mixed_spec(
            ns=(32,),
            ks=(2, 4),
            families=(InitFamily("random", "random"),),
            models=("rotor",),
            seeds=tuple(range(40)),
        ).configs()
        cells = _mixed_spec().configs() + wide
        merged_plan = _plan_chunks(cells, jobs=1)
        assert [len(p["cells"]) for p in merged_plan
                if p["cells"][0].n == 32] == [len(wide)]
        for jobs in (2, 4):
            assert _plan_chunks(cells, jobs=jobs) == merged_plan
        chunk_lanes(3)
        serial_plan = _plan_chunks(cells, jobs=1)
        assert {payload["cells"][0].model for payload in serial_plan} == {
            "rotor", "walk",
        }
        assert len(serial_plan) > len(merged_plan)
        for jobs in (2, 4):
            assert _plan_chunks(cells, jobs=jobs) == serial_plan

    @pytest.mark.parametrize(
        "name", ("stabilization", "speedup", "general_speedup")
    )
    def test_payloads_compute_the_same_after_pickling(self, name):
        # What a worker unpickles computes exactly what the dispatching
        # process would: payloads carry the cells (general ones with
        # their CSR), and lane arrays are built wherever the chunk runs.
        cells = scenario(name, quick=True).configs()
        for payload in _plan_chunks(cells, jobs=2):
            shipped = pickle.loads(pickle.dumps(payload))
            assert compute_chunk(shipped) == compute_chunk(payload)

    def test_general_chunks_carry_exactly_their_graphs(self):
        # Cells over one graph share its CSR and port tuple, so a
        # pickled payload holds one GraphCSR per distinct graph:
        # pickle's memo writes each once, however many cells use it.
        cells = scenario("general_speedup", quick=True).configs()
        for payload in _plan_chunks(cells, jobs=2):
            digests = {cell.graph_digest for cell in payload["cells"]}
            shipped = pickle.loads(pickle.dumps(payload))
            csrs = {id(cell.csr()) for cell in shipped["cells"]}
            ports = {id(cell.graph_ports) for cell in shipped["cells"]}
            assert len(csrs) == len(ports) == len(digests)
            for ours, theirs in zip(shipped["cells"], payload["cells"]):
                csr = ours.csr()
                # Recompute from the arrays that crossed the pipe, not
                # from the digest cached on the pickled instance.
                rebuilt = GraphCSR(
                    indptr=csr.indptr,
                    neighbors=csr.neighbors,
                    deg=csr.deg,
                )
                assert rebuilt.digest == theirs.graph_digest
                assert csr.to_ports() == ours.graph_ports

    def test_serial_plan_computes_the_planners_cells_without_hashing(
        self, monkeypatch
    ):
        # At jobs=1 a payload holds the planner's own cell objects:
        # nothing is serialized, rebuilt or hashed again.  The hashes
        # are cached first, as run_cells does when it deduplicates.
        cells = (
            _mixed_spec().configs()
            + scenario("general_speedup", quick=True).configs()
            + [
                RotorCell(
                    n=12, agents=(0, 6), directions=(1,) * 12,
                    metrics=("stabilization", "return"), max_rounds=4096,
                ),
                WalkCoverCell(
                    n=12, agents=(0,), seeds=(1, 2), max_rounds=20_000
                ),
                WalkGapsCell(
                    n=12, k=2, node=0, observation_rounds=600, burn_in=12,
                    seed=3,
                ),
            ]
        )
        expected = {cell.config_hash for cell in cells}
        assert len(expected) == len(cells)

        def rehashed(*args, **kwargs):
            raise AssertionError("a planned cell was hashed again")

        monkeypatch.setattr(cells_module, "_hash_identity", rehashed)
        monkeypatch.setattr(
            spec_module, "hashlib", SimpleNamespace(sha256=rehashed)
        )
        payloads = _plan_chunks(cells, jobs=1)
        planned = [cell for payload in payloads for cell in payload["cells"]]
        assert sorted(map(id, planned)) == sorted(map(id, cells))
        pairs = [
            pair for payload in payloads for pair in compute_chunk(payload)
        ]
        assert len(pairs) == len(cells)
        assert {config_hash for config_hash, _ in pairs} == expected
