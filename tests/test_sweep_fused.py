"""Round fusion & shared-memory handoff: bit-identity under scheduling.

Two pillars of the fused execution path are pinned here:

* **Round fusion is identity-neutral.**  Randomized configurations are
  run at ``fuse_rounds`` 1 (the pre-fusion cadence), 7 (odd, misaligned
  with every power-of-two budget) and 64 (wide epochs that overshoot
  most events), and every observable — cover rounds, final pointers and
  counts, stabilization periods, walk visit tables — must be
  bit-identical.  Trials deliberately include lanes that cover *inside*
  a fused epoch and lanes that truncate at ``max_rounds``.
* **The shared-memory worker handoff changes nothing.**  A ``jobs=2``
  sweep must equal the serial run result-for-result and kernel-counter
  for kernel-counter, rerun from its cache with zero recomputation, and
  keep shared-memory naming out of the cache-identity surface (the
  D003 lint section at the bottom).
"""

import textwrap

import numpy as np
import pytest

from repro.lint import run_lint
from repro.obs.manifest import load_manifest, trace_session
from repro.sweep import shm
from repro.sweep.batch_ring import (
    BatchRingKernel,
    batch_limit_cycles,
)
from repro.sweep.batch_walk import BatchRingWalks, WalkLane
from repro.sweep.executor import run_sweep
from repro.sweep.spec import InitFamily, ScenarioSpec

FUSE_GRID = (1, 7, 64)


def _random_ring_config(rng, max_n=40, max_lanes=6):
    """One random (n, pointers, counts) block with >= 1 agent per lane."""
    n = int(rng.integers(5, max_n))
    lanes = int(rng.integers(2, max_lanes))
    pointers = rng.choice(np.array([-1, 1], dtype=np.int64), size=(lanes, n))
    counts = rng.binomial(2, 0.2, size=(lanes, n)).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    counts[empty, rng.integers(0, n, size=int(empty.sum()))] = 1
    return n, pointers, counts


def _ring_state(kernel):
    """Every observable of a finished ring kernel, for equality checks."""
    return (
        kernel.round,
        kernel.cover_rounds.copy(),
        kernel._ptr.copy(),
        kernel._counts.copy(),
    )


def _assert_states_equal(reference, candidate, context):
    ref_round, ref_cover, ref_ptr, ref_counts = reference
    got_round, got_cover, got_ptr, got_counts = candidate
    assert got_round == ref_round, context
    np.testing.assert_array_equal(got_cover, ref_cover, err_msg=context)
    np.testing.assert_array_equal(got_ptr, ref_ptr, err_msg=context)
    np.testing.assert_array_equal(got_counts, ref_counts, err_msg=context)


class TestRingFusionEquivalence:
    """Fused ring cover runs replay to bit-identical results."""

    @pytest.mark.parametrize("trial", range(40))
    def test_cover_and_final_state_match_across_fusion(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n, pointers, counts = _random_ring_config(rng)
        # Mix horizons: generous (all lanes cover, many inside one wide
        # epoch) and starved (truncation lanes report -1).
        max_rounds = int(rng.choice([8, 64, 16 * n * n]))
        kernels = []
        for fuse in FUSE_GRID:
            kernel = BatchRingKernel(n, pointers, counts, fuse_rounds=fuse)
            kernel.run_until_covered(max_rounds, strict=False)
            kernels.append(kernel)
        # Wider epochs may stop later (cover is only *checked* at epoch
        # boundaries; the recorded cover rounds are exact regardless).
        # Advance everyone to the latest stopping round and the full
        # configurations must coincide bit for bit.
        horizon = max(kernel.round for kernel in kernels)
        states = []
        for kernel in kernels:
            kernel.step_rounds(horizon - kernel.round)
            states.append(_ring_state(kernel))
        for fuse, state in zip(FUSE_GRID[1:], states[1:]):
            _assert_states_equal(
                states[0], state,
                f"trial={trial} n={n} max_rounds={max_rounds} fuse={fuse}",
            )

    @pytest.mark.parametrize("trial", range(10))
    def test_step_rounds_matches_across_fusion(self, trial):
        rng = np.random.default_rng(2000 + trial)
        n, pointers, counts = _random_ring_config(rng)
        rounds = int(rng.integers(1, 200))
        states = []
        for fuse in FUSE_GRID:
            kernel = BatchRingKernel(n, pointers, counts, fuse_rounds=fuse)
            kernel.step_rounds(rounds)
            states.append(_ring_state(kernel))
        for fuse, state in zip(FUSE_GRID[1:], states[1:]):
            _assert_states_equal(
                states[0], state, f"trial={trial} rounds={rounds} fuse={fuse}"
            )

    def test_cover_inside_first_wide_epoch_is_exact(self):
        # A single rotor walker fighting outward-pointing rotors covers
        # the n=40 ring around round 780 — deep inside a 64-round-fused
        # epoch (64 * 32 = 2048 rounds) but 25 windows into the
        # unfused run.  Replay must pin the exact round, not the epoch
        # boundary the lane was first *detected* covered at.
        n = 40
        pointers = np.array(
            [[1 if i < n // 2 else -1 for i in range(n)]], dtype=np.int64
        )
        counts = np.zeros((1, n), dtype=np.int64)
        counts[0, n // 2] = 1
        reference = BatchRingKernel(n, pointers, counts, fuse_rounds=1)
        fused = BatchRingKernel(n, pointers, counts, fuse_rounds=64)
        np.testing.assert_array_equal(
            fused.run_until_covered(10_000),
            reference.run_until_covered(10_000),
        )
        assert int(fused.cover_rounds[0]) == 780
        assert fused._epochs == 1 < reference._epochs


class TestLimitFusionEquivalence:
    """Fused Brent phase 1 resolves identical periods and preperiods."""

    @pytest.mark.parametrize("trial", range(30))
    def test_periods_and_preperiods_match_across_fusion(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n, pointers, counts = _random_ring_config(rng, max_n=24, max_lanes=5)
        # Starve a third of the trials so truncation lanes (-1) are
        # compared too.
        max_rounds = 40 if trial % 3 == 0 else 64 * n * n
        results = [
            batch_limit_cycles(
                n, pointers, counts, max_rounds, strict=False,
                fuse_rounds=fuse,
            )
            for fuse in FUSE_GRID
        ]
        for fuse, result in zip(FUSE_GRID[1:], results[1:]):
            context = f"trial={trial} n={n} fuse={fuse}"
            np.testing.assert_array_equal(
                result.periods, results[0].periods, err_msg=context
            )
            np.testing.assert_array_equal(
                result.preperiods, results[0].preperiods, err_msg=context
            )


class TestWalkFusionEquivalence:
    """Fused walk epochs draw the same streams, visit for visit."""

    @staticmethod
    def _random_walk_lanes(rng, n):
        lanes = []
        for _ in range(int(rng.integers(2, 5))):
            walkers = int(rng.integers(1, 4))
            positions = tuple(
                int(p) for p in rng.integers(0, n, size=walkers)
            )
            lanes.append(WalkLane(positions, seed=int(rng.integers(2**31))))
        return lanes

    @pytest.mark.parametrize("trial", range(30))
    def test_visit_tables_match_across_fusion(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(5, 24))
        lanes = self._random_walk_lanes(rng, n)
        max_rounds = int(rng.choice([48, 20 * n * n]))
        tables = []
        for fuse in FUSE_GRID:
            walks = BatchRingWalks(n, lanes, fuse_rounds=fuse)
            walks.run_until_covered(max_rounds, strict=False)
            tables.append(
                (
                    walks.first_visit.copy(),
                    walks.cover_rounds.copy(),
                    [walks.positions_lane(b) for b in range(walks.num_lanes)],
                )
            )
        for fuse, (visits, covers, positions) in zip(FUSE_GRID[1:], tables[1:]):
            context = f"trial={trial} n={n} fuse={fuse}"
            np.testing.assert_array_equal(
                visits, tables[0][0], err_msg=context
            )
            np.testing.assert_array_equal(
                covers, tables[0][1], err_msg=context
            )
            assert positions == tables[0][2], context


# --------------------------------------------------------------- shm


class TestSlabArena:
    def test_roundtrip_preserves_values_and_dtypes(self):
        arena = shm.SlabArena()
        arrays = [
            np.arange(17, dtype=np.int64),
            np.ones((3, 5), dtype=np.uint8),
            np.linspace(0.0, 1.0, 7),
        ]
        descriptors = [arena.add(a) for a in arrays]
        arena.seal()
        try:
            for array, descriptor in zip(arrays, descriptors):
                assert shm.is_descriptor(descriptor)
                view = shm.resolve(descriptor)
                np.testing.assert_array_equal(view, array)
                assert view.dtype == array.dtype
                assert not view.flags.writeable
        finally:
            arena.close()

    def test_descriptors_pick_up_segment_name_at_seal(self):
        arena = shm.SlabArena()
        descriptor = arena.add(np.zeros(4))
        assert descriptor["segment"] is None
        arena.seal()
        try:
            assert descriptor["segment"].startswith("repro-")
        finally:
            arena.close()

    def test_close_is_idempotent_and_add_after_seal_rejected(self):
        arena = shm.SlabArena()
        arena.add(np.zeros(2))
        arena.seal()
        with pytest.raises(RuntimeError):
            arena.add(np.zeros(2))
        with pytest.raises(RuntimeError):
            arena.seal()
        arena.close()
        arena.close()

    def test_csr_roundtrip_is_zero_copy(self):
        from repro.graphs.families import torus_2d

        graph = torus_2d(3, 3).to_csr()
        arena = shm.SlabArena()
        entry = shm.pack_csr(arena, graph)
        arena.seal()
        try:
            assert shm.is_csr_descriptor(entry)
            rebuilt = shm.resolve_csr(entry)
            assert rebuilt.digest == graph.digest
            # Read-only views pass straight through GraphCSR's
            # defensive-copy gate: the rebuilt graph's arrays are the
            # shared pages themselves.
            assert not rebuilt.indptr.flags.owndata
        finally:
            arena.close()


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


def _kernel_counters(manifest):
    """The deterministic kernel counters: ring.* and walk.* families."""
    return {
        name: value
        for name, value in manifest["counters"].items()
        if name.startswith(("ring.", "walk."))
    }


class TestParallelEquivalence:
    def test_jobs2_shared_memory_matches_serial(self, tmp_path, chunk_lanes):
        spec = _mixed_spec()
        chunk_lanes(3)
        serial_path = str(tmp_path / "serial.jsonl")
        with trace_session(serial_path):
            serial = run_sweep(spec, jobs=1)
        parallel_path = str(tmp_path / "parallel.jsonl")
        with trace_session(parallel_path):
            parallel = run_sweep(spec, jobs=2)

        assert len(parallel.results) == len(serial.results)
        for ours, theirs in zip(parallel.results, serial.results):
            assert ours.config == theirs.config
            assert ours.metrics == theirs.metrics
        # Same kernel work, counter for counter: the shared-memory
        # handoff and chunk scheduling must not change what the
        # kernels computed.  (executor.* counters legitimately differ
        # — the shm segment only exists at jobs>1.)
        serial_counters = _kernel_counters(load_manifest(serial_path))
        parallel_counters = _kernel_counters(load_manifest(parallel_path))
        assert serial_counters == parallel_counters

    def test_jobs2_rotor_lanes_ride_shared_memory(self, tmp_path, chunk_lanes):
        # Stabilization chunks always take the batch kernel, so their
        # lane slabs are guaranteed to ship through the arena (sparse
        # cover chunks run the CSR kernel and skip packing).
        spec = _mixed_spec(
            metrics=("stabilization",), models=("rotor",), repetitions=1
        )
        chunk_lanes(3)
        path = str(tmp_path / "trace.jsonl")
        with trace_session(path):
            parallel = run_sweep(spec, jobs=2)
        serial = run_sweep(spec, jobs=1)
        for ours, theirs in zip(parallel.results, serial.results):
            assert ours.metrics == theirs.metrics
        counters = load_manifest(path)["counters"]
        assert counters["executor.shm_segments"] == 1
        assert counters["executor.shm_bytes"] > 0

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


# ------------------------------------------------------ identity lint


class TestShmIdentitySafety:
    """Segment naming stays outside every identity-producing function."""

    def test_shm_module_is_clean_under_d003(self):
        report = run_lint(["src/repro/sweep/shm.py"], select=["D003"])
        assert report.findings == []

    def test_d003_would_catch_pid_naming_in_identity_code(self, tmp_path):
        # Canary: the rule has teeth over exactly this pattern — moving
        # pid-derived naming into an identity helper is flagged.
        target = tmp_path / "pkg" / "shmlike.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(
            """
            import os

            def segment_digest(seq):
                return f"repro-{os.getpid()}-{seq}"
            """
        ))
        report = run_lint(
            [str(target)], select=["D003"],
            lock_path=str(tmp_path / "lock"),
        )
        assert [finding.code for finding in report.findings] == ["D003"]
