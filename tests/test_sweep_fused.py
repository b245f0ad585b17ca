"""Scheduling never changes a result: cadences, fusion and ``jobs``.

Four pillars of the execution path are pinned here:

* **The ring kernel's windowed cover driver is exact.**  Randomized
  configurations run through ``run_until_covered`` (8-round
  reconciliation windows that read each cover round off the window's
  history) must stop at the round and with the cover rounds that
  per-round ``step()`` reaches, with
  :data:`repro.sweep.batch_ring.COMPACT_RATIO` patched to 0, its
  default and 1; at 0, which keeps every lane, the final pointers and
  counts must match too.  Trials include lanes that cover *inside* a
  window and lanes that truncate at ``max_rounds``, and the covers and
  states are the same with ``BatchRingKernel._WINDOW`` patched to 1,
  3, 8 and 32.
* **Brent's limit-cycle search is exact at every compaction ratio.**
  Randomized lanes resolve to the reference preperiod and period with
  :data:`repro.sweep.batch_ring.COMPACT_RATIO` patched to 0 (never
  compact), its default and 1 (compact on every resolution); starved
  budgets truncate exactly the lanes whose search does not fit.
* **Walk fusion is identity-neutral.**  The walk kernel runs with
  :data:`repro.sweep.batch_walk.FUSE_ROUNDS` patched to 1 (the
  unfused cadence), 7 (odd, misaligned with every power-of-two budget)
  and 64 (wide epochs that overshoot most events), and the visit
  tables, covers and final positions must be bit-identical.
* **``jobs`` changes nothing.**  A ``jobs=2`` sweep — ring, walk and
  general-graph cells alike, each chunk's cells pickled as-is — must
  equal the serial run result-for-result and kernel-counter for
  kernel-counter, and rerun from its cache with zero recomputation;
  a payload computes the same results after a pickle round trip, and
  at ``jobs=1`` computes on the planner's own cells without hashing
  any of them again.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.graphs.base import GraphCSR
from repro.obs.manifest import load_manifest, trace_session
from repro.randomwalk import ring_walk
from repro.sweep import batch_ring, batch_walk
from repro.sweep import cells as cells_module
from repro.sweep import spec as spec_module
from repro.sweep.batch_ring import BatchRingKernel, batch_limit_cycles
from repro.sweep.batch_walk import BatchRingWalks, WalkLane
from repro.sweep.cells import RotorCell, WalkCoverCell, WalkGapsCell
from repro.sweep.executor import _plan_chunks, compute_chunk, run_sweep
from repro.sweep.registry import scenario
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
    lanes = range(kernel.num_lanes)
    return (
        kernel.round,
        kernel.cover_rounds.copy(),
        np.array([kernel.directions_lane(lane) for lane in lanes]),
        np.array([kernel.counts_lane(lane) for lane in lanes]),
    )


def _assert_states_equal(reference, candidate, context):
    ref_round, ref_cover, ref_ptr, ref_counts = reference
    got_round, got_cover, got_ptr, got_counts = candidate
    assert got_round == ref_round, context
    np.testing.assert_array_equal(got_cover, ref_cover, err_msg=context)
    np.testing.assert_array_equal(got_ptr, ref_ptr, err_msg=context)
    np.testing.assert_array_equal(got_counts, ref_counts, err_msg=context)


class TestRingWindowedCover:
    """Windowed ring cover runs match per-round stepping bit for bit."""

    @pytest.mark.parametrize("trial", range(40))
    def test_cover_and_final_state_match_stepping(self, trial, monkeypatch):
        rng = np.random.default_rng(1000 + trial)
        n, pointers, counts = _random_ring_config(rng)
        # Mix horizons: generous (all lanes cover, most inside a
        # window) and starved (truncation lanes report -1).
        max_rounds = int(rng.choice([8, 64, 16 * n * n]))
        windowed = {}
        for ratio in (0.0, batch_ring.COMPACT_RATIO, 1.0):
            monkeypatch.setattr(batch_ring, "COMPACT_RATIO", ratio)
            windowed[ratio] = BatchRingKernel(n, pointers, counts)
            windowed[ratio].run_until_covered(max_rounds, strict=False)
        # Cover is only *checked* at window boundaries; the recorded
        # cover rounds are exact regardless, so stepping round by round
        # to the same stopping round must reach the identical state.
        stepped = BatchRingKernel(n, pointers, counts)
        for _ in range(windowed[0.0].round):
            stepped.step()
        context = f"trial={trial} n={n} max_rounds={max_rounds}"
        # Ratio 0 never compacts, so it holds every lane to the end.
        _assert_states_equal(
            _ring_state(stepped), _ring_state(windowed[0.0]), context
        )
        for ratio, kernel in windowed.items():
            assert kernel.round == stepped.round, f"{context} ratio={ratio}"
            np.testing.assert_array_equal(
                kernel.cover_rounds, stepped.cover_rounds,
                err_msg=f"{context} ratio={ratio}",
            )

    @pytest.mark.parametrize("trial", range(10))
    def test_run_matches_stepping(self, trial):
        rng = np.random.default_rng(2000 + trial)
        n, pointers, counts = _random_ring_config(rng)
        rounds = int(rng.integers(1, 200))
        # Split the horizon at an arbitrary round: where one ``run``
        # call ends and the next begins must not move the windows'
        # results either.
        first = int(rng.integers(0, rounds + 1))
        windowed = BatchRingKernel(n, pointers, counts)
        windowed.run(first)
        windowed.run(rounds - first)
        stepped = BatchRingKernel(n, pointers, counts)
        for _ in range(rounds):
            stepped.step()
        _assert_states_equal(
            _ring_state(stepped), _ring_state(windowed),
            f"trial={trial} n={n} rounds={rounds} first={first}",
        )

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

    @pytest.mark.parametrize("n", (64, 45))
    def test_covers_do_not_depend_on_the_window(self, n, monkeypatch):
        # One merged block of mixed k, as the executor plans dense
        # chunks.  The budget (409 at n = 64, 275 at n = 45) ends inside
        # a window at every width but 1 and truncates the slowest lanes.
        rng = np.random.default_rng(4000 + n)
        lanes = 256
        pointers = rng.choice(np.array([-1, 1]), size=(lanes, n))
        counts = np.zeros((lanes, n), dtype=np.int64)
        for lane, k in enumerate(rng.integers(1, 17, size=lanes)):
            np.add.at(counts[lane], rng.integers(0, n, size=k), 1)
        results = {}
        for width in (1, 3, 8, 32):
            monkeypatch.setattr(BatchRingKernel, "_WINDOW", width)
            if width == 1:
                full = BatchRingKernel(n, pointers, counts)
                max_rounds = int(
                    np.quantile(full.run_until_covered(16 * n * n), 0.9)
                ) | 1
            covers = BatchRingKernel(n, pointers, counts).run_until_covered(
                max_rounds, strict=False
            )
            ran = BatchRingKernel(n, pointers, counts)
            ran.run(max_rounds)
            results[width] = covers, _ring_state(ran)
        stepped_covers, stepped_state = results[1]
        covered = stepped_covers[stepped_covers >= 0]
        assert (stepped_covers < 0).any()
        for width in (3, 8, 32):
            # Lanes cover at every offset inside a window of this width.
            assert set((covered - 1) % width) == set(range(width))
            covers, state = results[width]
            context = f"n={n} width={width}"
            np.testing.assert_array_equal(
                covers, stepped_covers, err_msg=context
            )
            _assert_states_equal(stepped_state, state, context)


def _brent_rounds(preperiod, period):
    """Rounds Brent's phase 1 steps before it confirms ``period``.

    Snapshots sit at rounds ``2^j - 1``, each compared against the next
    ``2^j`` rounds: the first snapshot inside the cycle whose window
    spans a full period sees its configuration again ``period`` rounds
    later.
    """
    window = 1
    while window - 1 < preperiod or window < period:
        window *= 2
    return window - 1 + period


class TestLimitCompaction:
    """Brent's search resolves reference cycles at every compaction ratio."""

    @pytest.mark.parametrize("trial", range(30))
    def test_periods_and_preperiods_match_reference(self, trial, monkeypatch):
        rng = np.random.default_rng(3000 + trial)
        n, pointers, counts = _random_ring_config(rng, max_n=24, max_lanes=5)
        # Starve a third of the trials so truncation lanes (-1) are
        # compared too: a lane resolves exactly when its search fits.
        max_rounds = 40 if trial % 3 == 0 else 64 * n * n
        expected_preperiods, expected_periods = [], []
        for lane in range(pointers.shape[0]):
            agents = np.repeat(np.arange(n), counts[lane]).tolist()
            ref = ring_rotor_return_time_exact(
                n, agents, pointers[lane].tolist()
            )
            fits = _brent_rounds(ref.preperiod, ref.period) <= max_rounds
            expected_preperiods.append(ref.preperiod if fits else -1)
            expected_periods.append(ref.period if fits else -1)
        for ratio in (0.0, batch_ring.COMPACT_RATIO, 1.0):
            monkeypatch.setattr(batch_ring, "COMPACT_RATIO", ratio)
            cycles = batch_limit_cycles(
                n, pointers, counts, max_rounds, strict=False
            )
            context = f"trial={trial} n={n} ratio={ratio}"
            np.testing.assert_array_equal(
                cycles.periods, expected_periods, err_msg=context
            )
            np.testing.assert_array_equal(
                cycles.preperiods, expected_preperiods, err_msg=context
            )


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
        rounds = _brent_rounds(ref.preperiod, ref.period)
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
    def test_visit_tables_match_across_fusion(self, trial, monkeypatch):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(5, 24))
        lanes = self._random_walk_lanes(rng, n)
        max_rounds = int(rng.choice([48, 20 * n * n]))
        tables = []
        for fuse in FUSE_GRID:
            monkeypatch.setattr(batch_walk, "FUSE_ROUNDS", fuse)
            walks = BatchRingWalks(n, lanes)
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


def _kernel_counters(manifest):
    """The deterministic kernel counters: ring.* and walk.* families."""
    return {
        name: value
        for name, value in manifest["counters"].items()
        if name.startswith(("ring.", "walk."))
    }


class TestParallelEquivalence:
    def test_jobs2_matches_serial(self, tmp_path, chunk_lanes):
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
        # Same kernel work, counter for counter: chunk scheduling and
        # the worker handoff must not change what the kernels computed.
        # (executor.* counters legitimately differ with the pool.)
        serial_counters = _kernel_counters(load_manifest(serial_path))
        parallel_counters = _kernel_counters(load_manifest(parallel_path))
        assert serial_counters == parallel_counters

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
