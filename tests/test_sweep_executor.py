"""Executor semantics: metrics, caching, parallelism, progress."""

import dataclasses
import hashlib
import json
import os
import sqlite3

import pytest

from differential import (
    Walk,
    case,
    oracle_cover,
    oracle_limit,
    ring_cells,
    rotor_metrics,
    walk_run,
)
from repro.cli import main
from repro.sweep import executor
from repro.sweep.executor import (
    _plan_chunks,
    _prefer_sparse_covers,
    compute_chunk,
    run_cells,
    run_sweep,
)
from repro.sweep.spec import InitFamily, ScenarioSpec, SweepConfig
from repro.sweep.store import STORE_FILE, open_store, verify_store


def _cover_spec(**overrides):
    base = dict(
        name="exec-test",
        ns=(16, 24),
        ks=(2, 3),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _execute(cache_dir: str, sql: str, params: tuple) -> None:
    """Run one statement against a cache's database, behind its back."""
    conn = sqlite3.connect(os.path.join(cache_dir, STORE_FILE))
    with conn:
        conn.execute(sql, params)
    conn.close()


def _rows(cache_dir: str) -> dict[str, tuple[str, str]]:
    """Every stored row: ``hash -> (config text, metrics text)``."""
    conn = sqlite3.connect(os.path.join(cache_dir, STORE_FILE))
    rows = conn.execute("SELECT hash, config, metrics FROM cells").fetchall()
    conn.close()
    return {row_hash: (config, metrics) for row_hash, config, metrics in rows}


class TestMetrics:
    def test_cover_matches_reference_harness(self):
        result = run_sweep(_cover_spec())
        assert len(result.results) == _cover_spec().num_configs
        for cell in result.results:
            config = cell.config
            agents, directions = config.build()
            assert cell.metrics["cover"] == oracle_cover(
                config.n, agents, directions
            )

    def test_random_families_match_build_on_every_route(self, chunk_lanes):
        # Closed form (k = 1), sparse (k = 2: Σk = 8 < n per 4-cell
        # block) and dense (k = 8) chunks all read their lanes from
        # rotor_lanes.
        chunk_lanes(4)
        spec = _cover_spec(
            ns=(16,), ks=(1, 2, 8), seeds=(0, 1),
            families=(
                InitFamily("random", "random"),
                InitFamily("clustered", "random"),
            ),
        )
        routes = {
            "single" if executor._closed_form_covers(chunk)
            else "sparse" if _prefer_sparse_covers(16, chunk)
            else "dense"
            for chunk in (p["cells"] for p in _plan_chunks(spec.configs()))
        }
        assert routes == {"single", "sparse", "dense"}
        result = run_sweep(spec)
        for cell in result.results:
            agents, directions = cell.config.build()
            assert cell.metrics["cover"] == oracle_cover(
                16, agents, directions
            )

    def test_stabilization_and_return_match_reference(self):
        spec = _cover_spec(
            ns=(16,), ks=(2,), metrics=("stabilization", "return")
        )
        result = run_sweep(spec)
        for cell in result.results:
            config = cell.config
            agents, directions = config.build()
            ref = oracle_limit(config.n, agents, directions)
            assert cell.metrics["preperiod"] == ref.preperiod
            assert cell.metrics["period"] == ref.period
            assert cell.metrics["worst_gap"] == ref.worst
            assert cell.metrics["best_gap"] == ref.best

    def test_truncated_stabilization_records_nulls(self):
        # An exhausted round budget must yield None metrics, not a crash.
        spec = _cover_spec(
            ns=(16,), ks=(4,),
            families=(InitFamily("all_on_one", "toward_node0"),),
            metrics=("stabilization", "return"),
        )
        config = dataclasses.replace(spec.configs()[0], max_rounds=2)
        [(_, metrics)] = compute_chunk({"cells": [config]})
        assert metrics == {
            "preperiod": None,
            "period": None,
            "worst_gap": None,
            "best_gap": None,
        }

    def test_return_metrics_with_mixed_resolved_and_truncated_lanes(self):
        """Regression for the `lanes` shadowing in _compute_rotor_chunk:
        one chunk mixing resolved and truncated lanes must report exact
        gaps for the resolved lanes and nulls for the truncated ones."""
        n = 16
        fast = SweepConfig(
            n=n, k=2, placement="equally_spaced", pointer="positive",
            seed=0, metrics=("stabilization", "return"), max_rounds=64,
        )
        slow = SweepConfig(
            n=n, k=4, placement="all_on_one", pointer="toward_node0",
            seed=0, metrics=("stabilization", "return"), max_rounds=64,
        )
        results = dict(compute_chunk({"cells": [slow, fast, slow]}))
        agents, directions = fast.build()
        ref = oracle_limit(n, agents, directions)
        fast_metrics = results[fast.config_hash]
        assert fast_metrics["preperiod"] == ref.preperiod
        assert fast_metrics["period"] == ref.period
        assert fast_metrics["worst_gap"] == ref.worst
        assert fast_metrics["best_gap"] == ref.best
        slow_metrics = results[slow.config_hash]
        assert slow_metrics == {
            "preperiod": None, "period": None,
            "worst_gap": None, "best_gap": None,
        }

    def test_table_layout(self):
        result = run_sweep(_cover_spec())
        table = result.table()
        assert "cover" in table.columns
        assert len(table.rows) == len(result.results)

    def test_small_chunks_cover_all_cells(self, chunk_lanes):
        serial = run_sweep(_cover_spec())
        chunk_lanes(2)
        chunked = run_sweep(_cover_spec())
        assert [c.metrics for c in serial.results] == [
            c.metrics for c in chunked.results
        ]


class TestWalkModel:
    def _walk_spec(self, **overrides):
        base = dict(
            name="walk-test",
            ns=(16,),
            ks=(2, 3),
            families=(InitFamily("all_on_one", "toward_node0"),),
            metrics=("cover",),
            models=("walk",),
            repetitions=3,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_walk_cells_pin_reference_repetitions(self):
        # The headline guarantee: a walk cell's mean is the exact mean
        # of standalone RingRandomWalks runs on the cell's derived seeds.
        result = run_sweep(self._walk_spec())
        for cell in result.results:
            config = cell.config
            agents = config.build_agents()
            samples = [
                walk_run(Walk(config.n, tuple(agents), seed), config.max_rounds)[0]
                for seed in config.rep_seeds()
            ]
            assert cell.metrics["cover"] == pytest.approx(
                sum(samples) / len(samples)
            )
            assert cell.metrics["cover_reps"] == config.repetitions
            assert cell.metrics["cover_truncated"] == 0
            assert (
                cell.metrics["cover_ci_low"]
                <= cell.metrics["cover"]
                <= cell.metrics["cover_ci_high"]
            )

    def test_both_models_in_one_sweep(self):
        spec = self._walk_spec(models=("rotor", "walk"))
        result = run_sweep(spec)
        models = {cell.config.model for cell in result.results}
        assert models == {"rotor", "walk"}
        for cell in result.results:
            if cell.config.model == "rotor":
                agents, directions = cell.config.build()
                assert cell.metrics["cover"] == oracle_cover(
                    cell.config.n, agents, directions
                )

    def test_truncated_walk_cell_records_nulls(self):
        config = dataclasses.replace(
            self._walk_spec().configs()[0], max_rounds=2
        )
        [(_, metrics)] = compute_chunk({"cells": [config]})
        assert metrics["cover"] is None
        assert metrics["cover_ci_low"] is None
        assert metrics["cover_truncated"] == 3

    def test_walk_results_cache_and_parallelize(self, tmp_path, chunk_lanes):
        spec = self._walk_spec(models=("rotor", "walk"))
        cache_dir = str(tmp_path / "cache")
        chunk_lanes(2)
        first = run_sweep(spec, jobs=2, cache_dir=cache_dir)
        assert first.cache_misses == spec.num_configs
        second = run_sweep(spec, cache_dir=cache_dir)
        assert second.cache_hits == spec.num_configs
        assert [c.metrics for c in first.results] == [
            c.metrics for c in second.results
        ]

    def test_walk_chunks_split_by_walker_budget(self, monkeypatch):
        spec = self._walk_spec(ks=(2, 3, 4, 5))
        monkeypatch.setattr(executor, "WALK_CHUNK_WALKERS", 20)
        payloads = _plan_chunks(spec.configs())
        assert len(payloads) > 1
        for payload in payloads:
            weight = sum(c.k * c.repetitions for c in payload["cells"])
            # single-config chunks may exceed the budget; multi-config
            # chunks never do
            assert len(payload["cells"]) == 1 or weight <= 20
        seen = [c.k for p in payloads for c in p["cells"]]
        assert sorted(seen) == [2, 3, 4, 5]


class TestSchedulingKnobs:
    def test_walk_chunk_walkers_override_preserves_results(
        self, monkeypatch
    ):
        spec = ScenarioSpec(
            name="walkers-test",
            ns=(16,),
            ks=(2, 3),
            families=(InitFamily("all_on_one", "toward_node0"),),
            metrics=("cover",),
            models=("walk",),
            repetitions=3,
        )
        default = run_sweep(spec)
        monkeypatch.setattr(executor, "WALK_CHUNK_WALKERS", 4)
        tiny = run_sweep(spec)
        assert [c.metrics for c in default.results] == [
            c.metrics for c in tiny.results
        ]

    def test_invalid_values_rejected(self):
        spec = _cover_spec(ns=(16,))
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(spec, jobs=-1)
        with pytest.raises(ValueError, match="max_retries"):
            run_sweep(spec, max_retries=-1)
        with pytest.raises(ValueError, match="chunk_timeout"):
            run_sweep(spec, chunk_timeout=0)


class TestChunkPlanning:
    def test_heterogeneous_metrics_group_separately(self):
        # Regression: chunks used to group by (n, max_rounds) only and
        # stamp chunk[0].metrics on the whole payload — a mixed-metric
        # miss list silently computed the wrong metric set for some
        # cells.  The computers read the metric set from cells[0].
        cover = _cover_spec(ns=(16,), metrics=("cover",)).configs()
        stab = _cover_spec(ns=(16,), metrics=("stabilization",)).configs()
        payloads = _plan_chunks(cover + stab)
        assert len(payloads) == 2
        for payload in payloads:
            for config in payload["cells"]:
                assert payload["cells"][0].metrics == config.metrics

    def test_heterogeneous_misses_compute_their_own_metrics(self):
        # End to end: every cell of a mixed-metric miss list comes back
        # with exactly the metric keys its own config requested.
        cover = _cover_spec(ns=(16,), ks=(2,), metrics=("cover",)).configs()
        stab = _cover_spec(
            ns=(16,), ks=(2,), metrics=("stabilization",)
        ).configs()
        by_hash = {c.config_hash: c for c in cover + stab}
        results = {}
        for payload in _plan_chunks(cover + stab):
            results.update(dict(compute_chunk(payload)))
        for config_hash, metrics in results.items():
            config = by_hash[config_hash]
            if "cover" in config.metrics:
                assert set(metrics) == {"cover"}
            else:
                assert set(metrics) == {"preperiod", "period"}

    def test_models_group_separately(self):
        rotor = _cover_spec(ns=(16,), ks=(2,)).configs()
        walk = _cover_spec(
            ns=(16,), ks=(2,), models=("walk",), repetitions=2
        ).configs()
        payloads = _plan_chunks(rotor + walk)
        assert sorted(p["cells"][0].model for p in payloads) == [
            "rotor", "walk",
        ]


class TestDenseChunkMerging:
    """Single-agent covers share one closed-form chunk; the other blocks
    route one by one, and adjacent dense blocks share a chunk."""

    def test_single_agent_covers_share_one_closed_form_chunk(
        self, chunk_lanes
    ):
        n = 16
        chunk_lanes(4)
        # Once the k = 1 cells leave, the rest slices into a sparse
        # block (k = 2, Σk = 8 < n) and a dense one (k = 8).
        cover = ring_cells(n, [1, 2, 2, 1, 2, 2, 1, 8, 8, 1, 8, 8, 1])
        limit = ring_cells(
            n, [1, 3, 1], metrics=("stabilization", "return"), seed=1
        )
        cells = cover + limit
        chunks = [payload["cells"] for payload in _plan_chunks(cells)]
        assert chunks == [
            [cell for cell in cover if cell.k == 1],
            [cell for cell in cover if cell.k == 2],
            [cell for cell in cover if cell.k == 8],
            limit,
        ]
        routes = [
            "single" if executor._closed_form_covers(chunk)
            else "sparse" if _prefer_sparse_covers(n, chunk)
            else "dense"
            for chunk in chunks
        ]
        assert routes == ["single", "sparse", "dense", "dense"]

        got, _, report = run_cells(cells)
        assert report.clean
        for cell in cells:
            assert got[cell.config_hash] == rotor_metrics(cell)

    def test_dense_group_merges_whole_blocks_up_to_the_budget(
        self, monkeypatch
    ):
        n = 16
        lanes = executor.CHUNK_LANES
        cells = ring_cells(n, [2, 3, 5] * 100)  # every block is dense
        # 300 cells x 16 nodes fit the default budget: one chunk.
        assert [p["cells"] for p in _plan_chunks(cells)] == [cells]
        for budget, sizes in (
            (5 * lanes * n // 2, [128, 128, 44]),  # two and a half blocks
            (lanes * n - 1, [64, 64, 64, 64, 44]),  # a block stays whole
        ):
            monkeypatch.setattr(executor, "CHUNK_ELEMENTS", budget)
            payloads = _plan_chunks(cells)
            assert [len(p["cells"]) for p in payloads] == sizes
            start = 0
            for payload in payloads:
                chunk = payload["cells"]
                assert start % lanes == 0
                assert chunk == cells[start:start + len(chunk)]
                assert len(chunk) <= lanes or len(chunk) * n <= budget
                start += len(chunk)
            assert start == len(cells)

    def test_sparse_blocks_stay_whole_and_split_dense_runs(self):
        n = 256
        lanes = executor.CHUNK_LANES
        # Runs of one block each: k = 2 blocks are sparse (Σk = 128 < n),
        # k = 4 blocks dense (Σk = 256).
        pattern = "ddsdssdd"
        cells = ring_cells(
            n, [2 if kind == "s" else 4 for kind in pattern for _ in
                range(lanes)]
        )
        blocks = [
            cells[start:start + lanes]
            for start in range(0, len(cells), lanes)
        ]
        payloads = _plan_chunks(cells)
        assert [p["cells"] for p in payloads] == [
            blocks[0] + blocks[1],
            blocks[2],
            blocks[3],
            blocks[4],
            blocks[5],
            blocks[6] + blocks[7],
        ]
        assert [
            "sparse" if _prefer_sparse_covers(n, p["cells"]) else "dense"
            for p in payloads
        ] == ["dense", "sparse", "dense", "sparse", "sparse", "dense"]

    @pytest.mark.parametrize(
        "metrics", [("cover",), ("stabilization", "return")]
    )
    def test_merging_never_changes_a_result(self, monkeypatch, metrics):
        n = 24
        cells = ring_cells(n, [2, 3, 4, 5, 8] * 30, metrics=metrics)
        assert len(_plan_chunks(cells)) == 1
        merged, _, report = run_cells(cells)
        assert report.clean
        monkeypatch.setattr(executor, "CHUNK_ELEMENTS", 0)
        assert len(_plan_chunks(cells)) == 3
        unmerged, _, report = run_cells(cells)
        assert report.clean
        assert sorted(merged.items()) == sorted(unmerged.items())
        assert len(merged) == len(cells)
        assert all(
            value is not None
            for metrics_out in merged.values()
            for value in metrics_out.values()
        )


def _general_cells(graphs, ks=(1, 2), seeds=(0,)):
    from repro.sweep.cells import GeneralRotorCell
    from repro.sweep.spec import general_instance

    cells = []
    for graph in graphs:
        for k in ks:
            for seed in seeds:
                agents, ports = general_instance(graph, k, seed)
                cells.append(
                    GeneralRotorCell.from_graph(graph, agents, ports, 50_000)
                )
    return cells


class TestGeneralChunkPlanning:
    def test_one_shared_chunk_with_digest_keyed_graph_table(
        self, chunk_lanes
    ):
        from repro.graphs import hypercube, star, torus_2d

        graphs = [torus_2d(4, 4), star(6), hypercube(4)]
        cells = _general_cells(graphs, ks=(1, 2, 5), seeds=(0, 1))
        chunk_lanes(4)
        payloads = _plan_chunks(cells)
        # jobs=1: the whole general group shares one kernel invocation,
        # regardless of CHUNK_LANES or differing budgets/graph sizes.
        assert len(payloads) == 1
        payload = payloads[0]
        assert set(payload) == {"cells"}
        assert {cell.model for cell in payload["cells"]} == {"rotor-general"}
        # The payload holds the planner's own cells, and cells over one
        # graph share one CSR keyed by its digest, so the chunk holds
        # each distinct graph exactly once — not once per cell.
        assert sorted(map(id, payload["cells"])) == sorted(map(id, cells))
        table = {}
        for cell in payload["cells"]:
            assert table.setdefault(cell.graph_digest, cell.csr()) is (
                cell.csr()
            )
        assert set(table) == {graph.to_csr().digest for graph in graphs}
        # Cells are clustered by graph digest.
        digests = [cell.graph_digest for cell in payload["cells"]]
        assert digests == sorted(digests)

    def test_parallel_planning_splits_general_group(self):
        from repro.graphs import torus_2d

        cells = _general_cells([torus_2d(4, 4)], ks=(1, 2, 3, 4),
                               seeds=(0, 1, 2))
        payloads = _plan_chunks(cells, jobs=3)
        assert len(payloads) > 1
        total = sum(len(p["cells"]) for p in payloads)
        assert total == len(cells)

    test_general_chunk_results_match_reference_engine = case(
        "general/planned"
    )

    def test_small_general_chunks_take_serial_path(self):
        from repro.analysis.cover_time import rotor_cover_time_general
        from repro.graphs import star

        # A chunk of a few tiny cells runs through the batched kernel
        # like any other and must match the serial reference covers.
        cells = _general_cells([star(5)], ks=(1, 2), seeds=(0,))
        (payload,) = _plan_chunks(cells)
        results = dict(compute_chunk(payload))
        assert len(results) == len(cells)
        graph = star(5)
        for cell in cells:
            assert results[cell.config_hash]["cover"] == (
                rotor_cover_time_general(
                    graph, list(cell.agents), list(cell.ports)
                )
            )


class TestCache:
    def test_second_run_is_all_hits(self, tmp_path):
        spec = _cover_spec()
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(spec, cache_dir=cache_dir)
        assert first.cache_hits == 0
        assert first.cache_misses == spec.num_configs
        second = run_sweep(spec, cache_dir=cache_dir)
        assert second.cache_hits == spec.num_configs
        assert second.cache_misses == 0
        assert [c.metrics for c in first.results] == [
            c.metrics for c in second.results
        ]

    def test_resume_computes_only_missing_cells(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(_cover_spec(ns=(16,)), cache_dir=cache_dir)
        grown = run_sweep(_cover_spec(ns=(16, 24)), cache_dir=cache_dir)
        # the n=16 half is served from cache, only n=24 is computed
        assert grown.cache_hits == _cover_spec(ns=(16,)).num_configs
        assert grown.cache_misses == grown.cache_hits

    def test_entries_are_inspectable_json(self, tmp_path):
        # Each row holds its identity and metrics as canonical JSON text,
        # readable with any SQLite client; the config text re-digests to
        # the row's key.
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, cache_dir=cache_dir)
        rows = _rows(cache_dir)
        assert len(rows) == spec.num_configs
        config = spec.configs()[0]
        config_text, metrics_text = rows[config.config_hash]
        digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
        assert digest == config.config_hash
        assert json.loads(config_text) == config.identity()
        assert json.loads(metrics_text)["cover"] > 0

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache_dir = str(tmp_path / "cache")
        baseline = run_sweep(spec, cache_dir=cache_dir)
        victim = spec.configs()[0]
        _execute(
            cache_dir,
            "UPDATE cells SET metrics = 'not json{' WHERE hash = ?",
            (victim.config_hash,),
        )
        result = run_sweep(spec, cache_dir=cache_dir)
        assert result.cache_misses == 1
        assert result.cache_hits == spec.num_configs - 1
        assert result.results[0].metrics == baseline.results[0].metrics
        assert json.loads(_rows(cache_dir)[victim.config_hash][1]) == (
            baseline.results[0].metrics
        )

    def test_truncated_json_is_a_miss_and_overwritten(self, tmp_path):
        # A metrics text cut short behind the store's back is reported
        # corrupt, never served, and recomputed over on the next run.
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache_dir = str(tmp_path / "cache")
        baseline = run_sweep(spec, cache_dir=cache_dir)
        victim = spec.configs()[0]
        intact = _rows(cache_dir)[victim.config_hash][1]
        _execute(
            cache_dir,
            "UPDATE cells SET metrics = ? WHERE hash = ?",
            (intact[: len(intact) // 2], victim.config_hash),
        )
        store = open_store(cache_dir)
        found, statuses = store.lookup_many([victim])
        store.close()
        assert found == {}
        assert statuses == {victim.config_hash: "corrupt"}
        result = run_sweep(spec, cache_dir=cache_dir)
        assert result.cache_misses == 1
        assert _rows(cache_dir)[victim.config_hash][1] == intact
        assert [c.metrics for c in result.results] == [
            c.metrics for c in baseline.results
        ]

    def test_v1_schema_entries_are_never_served(self, tmp_path):
        # A row written under config schema 1 is keyed by the digest of
        # its v1 identity, which no current cell's probe can reach: the
        # stale payload is never served, and the row stays sound.
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache_dir = str(tmp_path / "cache")
        config = spec.configs()[0]
        stale_text = json.dumps(
            dict(config.identity(), schema=1),
            sort_keys=True,
            separators=(",", ":"),
        )
        stale_hash = hashlib.sha256(stale_text.encode("utf-8")).hexdigest()
        assert stale_hash != config.config_hash
        store = open_store(cache_dir)
        store._put_rows([(stale_hash, stale_text, '{"cover":-12345}')])
        store.close()
        result = run_sweep(spec, cache_dir=cache_dir)
        assert result.cache_misses == spec.num_configs
        for cell in result.results:
            assert cell.metrics["cover"] != -12345
        assert verify_store(cache_dir).ok

    @pytest.mark.parametrize(
        "plant",
        [
            lambda identity: dict(identity, n=999),
            lambda identity: dict(identity, schema=1),
        ],
        ids=["foreign-identity", "stale-schema"],
    )
    def test_planted_row_is_verified_evicted_and_recomputed(
        self, tmp_path, capsys, plant
    ):
        # Rows enter only through put_many, which derives the key; a
        # row planted behind its back is caught by `repro cache
        # verify`, evicted by --repair, then recomputed.
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache_dir = str(tmp_path / "cache")
        baseline = run_sweep(spec, cache_dir=cache_dir)
        victim = spec.configs()[0]
        _execute(
            cache_dir,
            "UPDATE cells SET config = ?, metrics = ? WHERE hash = ?",
            (
                json.dumps(plant(victim.identity()), sort_keys=True),
                '{"cover": -12345}',
                victim.config_hash,
            ),
        )
        assert main(["cache", "verify", cache_dir]) == 1
        assert "corrupt=1 repaired=0" in capsys.readouterr().out
        assert main(["cache", "verify", cache_dir, "--repair"]) == 0
        assert "corrupt=1 repaired=1" in capsys.readouterr().out
        result = run_sweep(spec, cache_dir=cache_dir)
        assert result.cache_misses == 1
        assert [c.metrics for c in result.results] == [
            c.metrics for c in baseline.results
        ]

    def test_no_cache_dir_means_no_files(self, tmp_path):
        run_sweep(_cover_spec(ns=(16,), ks=(2,)), cache_dir=None)
        assert list(tmp_path.iterdir()) == []


class TestParallel:
    def test_two_jobs_match_serial(self, tmp_path, chunk_lanes):
        spec = _cover_spec()
        serial = run_sweep(spec)
        chunk_lanes(3)
        parallel = run_sweep(spec, jobs=2, cache_dir=str(tmp_path / "cache"))
        assert [c.metrics for c in serial.results] == [
            c.metrics for c in parallel.results
        ]
        # the parallel run populated the cache for a later serial run
        warm = run_sweep(spec, cache_dir=str(tmp_path / "cache"))
        assert warm.cache_misses == 0

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(_cover_spec(), jobs=-1)


class TestProgress:
    def test_progress_reaches_total(self):
        calls = []
        spec = _cover_spec(ns=(16,))
        run_sweep(spec, progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (spec.num_configs, spec.num_configs)
        assert all(total == spec.num_configs for _, total in calls)

    def test_elapsed_recorded(self):
        result = run_sweep(_cover_spec(ns=(16,), ks=(2,)))
        assert result.elapsed > 0


class TestRingSymmetries:
    """Rotating or reflecting a ring cell changes none of its metrics:
    the ``run-cells/symmetry`` row of the differential harness, a check
    that needs no reference engine, on the sparse, dense and limit-cycle
    routes of ``run_cells``."""

    test_rotation_and_reflection_preserve_metrics = case(
        "run-cells/symmetry"
    )
