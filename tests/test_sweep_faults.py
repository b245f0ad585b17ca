"""Fault tolerance: injection plans, the supervisor, self-healing.

The chaos acceptance suite for the fault-tolerant executor: seeded
:class:`repro.sweep.faults.FaultPlan` injections (worker crash, poison
cell, chunk delay past its deadline, corrupted store row) must leave
``run_cells`` finishing with exactly the poison cell quarantined and
every other metric bit-identical to a fault-free run — under both
``jobs=1`` and ``jobs=2``, on CSR cover chunks, on dense ring
stabilization chunks and on general-graph chunks — plus interrupt
safety, serial degradation, progress accounting and the
``repro cache verify`` CLI.  Failed attempts back off with no delay
here (``RETRY_BACKOFF`` patched to 0).
"""

import json
import os

import pytest

from repro.cli import main
from repro.sweep.executor import (
    FailureReport,
    StderrProgress,
    run_cells,
    run_sweep,
)
from repro.sweep.faults import (
    FAULTS_ENV,
    FaultPlan,
    corrupt_rows_in_store,
)
from repro.sweep.registry import scenario
from repro.sweep.spec import InitFamily, ScenarioSpec
from repro.sweep.store import open_store, verify_store


@pytest.fixture(autouse=True)
def _no_retry_backoff(monkeypatch):
    import repro.sweep.executor as executor_module

    monkeypatch.setattr(executor_module, "RETRY_BACKOFF", 0.0)


def _spec(**overrides):
    base = dict(
        name="faults-test",
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


def _baseline(cells) -> dict:
    metrics, cached, report = run_cells(cells)
    assert report.clean and not cached
    return metrics


class TestFaultPlan:
    def test_round_trip_and_enabled(self):
        plan = FaultPlan(
            seed=7,
            crash_chunks=(0, 2),
            poison_cells=("abc",),
            delay_chunks=((1, 0.5),),
            flaky_chunks=((3, 2),),
            corrupt_rows=("def",),
        )
        assert plan.enabled
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert not FaultPlan(seed=7).enabled

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        plan = FaultPlan(poison_cells=("ab",))
        monkeypatch.setenv(FAULTS_ENV, json.dumps(plan.to_dict()))
        assert FaultPlan.from_env() == plan

    def test_from_env_malformed_is_loud(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "not json")
        with pytest.raises(ValueError, match=FAULTS_ENV):
            FaultPlan.from_env()
        monkeypatch.setenv(FAULTS_ENV, "[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_env()

    def test_corrupt_matches_by_prefix(self):
        plan = FaultPlan(corrupt_rows=("ab", "ff"))
        assert plan.corrupt_matches(["abc", "ba", "ffff"]) == ["abc", "ffff"]


class TestChaosSuite:
    """The acceptance scenario: crash + poison + delay + corrupt row."""

    @pytest.mark.parametrize("jobs, kind, size", [
        pytest.param(1, "cover", 8, id="1"),
        pytest.param(2, "cover", 8, id="2"),
        pytest.param(1, "stabilization", 8, id="stabilization-1"),
        pytest.param(2, "stabilization", 8, id="stabilization-2"),
        pytest.param(1, "general", 12, id="general-1"),
        pytest.param(2, "general", 12, id="general-2"),
    ])
    def test_survives_and_heals(self, tmp_path, jobs, kind, size):
        # Cover chunks at these sizes take the sparse stepper
        # (Σk < n); stabilization chunks take the dense ring kernel
        # and the limit-cycle pipeline; general chunks, one at jobs=1
        # and several at jobs=2, take the CSR kernel over four graphs,
        # so bisection slices cells that carry their graphs.
        if kind == "general":
            cells = scenario("general_speedup", quick=True).configs()
        else:
            cells = _spec(metrics=(kind,)).configs()
        assert len(cells) == size
        baseline = _baseline(cells)
        poison = cells[0].config_hash
        tampered = cells[1].config_hash
        plan = FaultPlan(
            seed=1,
            crash_chunks=(0,),
            poison_cells=(poison,),
            delay_chunks=((0, 0.05),),
            corrupt_rows=(tampered,),
        )
        cache_dir = str(tmp_path / "cache")

        metrics, cached, report = run_cells(
            cells, jobs=jobs, cache_dir=cache_dir, faults=plan,
            max_retries=1, chunk_timeout=120.0,
        )
        # Only the poison cell is quarantined; everything else is
        # bit-identical to the fault-free run.
        assert report.quarantined.keys() == {poison}
        assert "InjectedFault" in report.quarantined[poison]
        assert report.failed == 1 and not cached
        assert metrics == {
            h: m for h, m in baseline.items() if h != poison
        }
        if jobs > 1:
            assert report.pool_restarts >= 1  # the injected crash
        else:
            assert report.retries >= 1  # crash simulated in-process
        assert report.chunk_failures >= 1  # bisection ran

        # The tampered row is caught by a full scan, and a fault-free
        # rerun recomputes exactly the quarantined + corrupt cells.
        assert verify_store(cache_dir).corrupt == 1
        metrics2, cached2, report2 = run_cells(
            cells, jobs=jobs, cache_dir=cache_dir
        )
        assert report2.clean
        assert metrics2 == baseline
        assert len(cached2) == len(cells) - 2
        assert verify_store(cache_dir).ok

    def test_flaky_chunk_retries_transparently(self, tmp_path):
        cells = _spec().configs()
        plan = FaultPlan(flaky_chunks=((0, 2),))
        metrics, _, report = run_cells(
            cells, faults=plan, max_retries=2,
        )
        assert metrics == _baseline(cells)
        assert report.retries == 2
        assert not report.quarantined and not report.chunk_failures

    def test_retry_waits_double_from_the_backoff_constant(self, monkeypatch):
        # Attempt a waits RETRY_BACKOFF * 2**(a - 1) before redispatch;
        # the waits are recorded, not slept.
        import repro.sweep.executor as executor_module

        monkeypatch.setattr(executor_module, "RETRY_BACKOFF", 1000.0)
        waits = []
        monkeypatch.setattr(executor_module.time, "sleep", waits.append)
        cells = _spec().configs()
        metrics, _, report = run_cells(
            cells, faults=FaultPlan(flaky_chunks=((0, 2),)), max_retries=2,
        )
        assert report.retries == 2
        assert waits == pytest.approx([1000.0, 2000.0], abs=10.0)
        assert metrics == _baseline(cells)

    def test_delay_past_deadline_times_out_and_recovers(self, tmp_path):
        cells = _spec().configs()
        plan = FaultPlan(delay_chunks=((0, 1.5),))
        metrics, _, report = run_cells(
            cells, jobs=2, faults=plan,
            max_retries=2, chunk_timeout=0.25,
        )
        assert metrics == _baseline(cells)
        assert report.timeouts >= 1
        assert report.pool_restarts >= 1  # the hung slot was reclaimed
        assert not report.quarantined

    def test_retries_exhausted_quarantines_single_cell(self):
        # max_retries=0: the poison fault goes straight to bisection.
        cells = _spec().configs()
        poison = cells[3].config_hash
        metrics, _, report = run_cells(
            cells, faults=FaultPlan(poison_cells=(poison,)),
            max_retries=0,
        )
        assert report.quarantined.keys() == {poison}
        assert set(metrics) == {
            c.config_hash for c in cells if c.config_hash != poison
        }


class TestSerialDegradation:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        import repro.sweep.executor as executor_module

        def broken_pool(jobs):
            raise RuntimeError("no pool for you")

        monkeypatch.setattr(executor_module, "_create_pool", broken_pool)
        cells = _spec().configs()
        metrics, _, report = run_cells(cells, jobs=2)
        assert metrics == _baseline(cells)
        assert report.serial_fallbacks == 1
        assert not report.quarantined

    def test_repeated_pool_death_degrades_to_serial(self, monkeypatch):
        import repro.sweep.executor as executor_module

        created = []

        class DispatchBrokenPool:
            def apply_async(self, fn, args):
                raise RuntimeError("pool lost its workers")

            def terminate(self):
                pass

            def join(self):
                pass

        def flaky_pool(jobs):
            created.append(jobs)
            return DispatchBrokenPool()

        monkeypatch.setattr(executor_module, "_create_pool", flaky_pool)
        cells = _spec().configs()
        metrics, _, report = run_cells(cells, jobs=2)
        assert metrics == _baseline(cells)
        assert report.serial_fallbacks == 1
        assert not report.quarantined


class TestAccounting:
    def test_progress_reaches_total_despite_quarantine(self):
        cells = _spec().configs()
        poison = cells[0].config_hash
        calls = []
        _, _, report = run_cells(
            cells,
            progress=lambda done, total: calls.append((done, total)),
            faults=FaultPlan(poison_cells=(poison,)),
            max_retries=0,
        )
        assert report.failed == 1
        assert calls[-1] == (len(cells), len(cells))
        dones = [done for done, _ in calls]
        assert dones == sorted(dones)  # never regresses, never stalls

    def test_stderr_progress_accepts_failed_cells(self, capsys):
        # The (done, total) stream includes quarantined cells, so the
        # reporter completes and resets exactly as in a clean sweep.
        progress = StderrProgress(tty=False, interval=0.0)
        cells = _spec().configs()
        run_cells(
            cells, progress=progress,
            faults=FaultPlan(poison_cells=(cells[0].config_hash,)),
            max_retries=0,
        )
        err = capsys.readouterr().err
        assert f"{len(cells)}/{len(cells)} configurations" in err
        assert progress._watch is None  # reset fired at completion

    def test_run_sweep_failed_accounting_and_table(self):
        spec = _spec()
        poison = spec.configs()[0].config_hash
        result = run_sweep(
            spec, faults=FaultPlan(poison_cells=(poison,)),
            max_retries=0,
        )
        assert result.failed == 1
        assert result.cache_hits == 0
        assert result.cache_misses == len(result.results) - 1
        assert isinstance(result.failure_report, FailureReport)
        [failed_row] = [r for r in result.results if r.failed]
        assert failed_row.config.config_hash == poison
        assert failed_row.metrics == {}
        assert "failed" in result.table().render()

    def test_measurement_plan_refuses_quarantined_cells(self, monkeypatch):
        from repro.analysis.backend import MeasurementPlan

        # An empty prefix poisons every cell: the experiment bridge
        # must fail loudly rather than serve partial tables.
        monkeypatch.setenv(
            FAULTS_ENV, json.dumps({"poison_cells": [""]})
        )
        plan = MeasurementPlan(backend="batch")
        plan.rotor_cover(8, [0, 4], [1] * 8)
        with pytest.raises(RuntimeError, match="quarantined"):
            plan.execute()


class TestInterruptSafety:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_interrupt_between_commits(self, tmp_path, jobs, chunk_lanes):
        cells = _spec().configs()
        baseline = _baseline(cells)
        cache_dir = str(tmp_path / "cache")

        class Interrupt(KeyboardInterrupt):
            pass

        def interrupting(done, total):
            if done >= 2:  # after the first committed chunk
                raise Interrupt()

        chunk_lanes(2)
        with pytest.raises(Interrupt):
            run_cells(
                cells, jobs=jobs, cache_dir=cache_dir, progress=interrupting,
            )
        # Committed chunks are fully readable, nothing is torn.
        assert verify_store(cache_dir).ok
        store = open_store(cache_dir)
        try:
            committed = store.count()
        finally:
            store.close()
        assert 0 < committed < len(cells)
        # The rerun recomputes exactly the uncommitted cells.
        metrics, cached, report = run_cells(
            cells, jobs=jobs, cache_dir=cache_dir
        )
        assert report.clean
        assert metrics == baseline
        assert len(cached) == committed


class TestVerifyCli:
    def test_verify_reports_and_repairs(self, tmp_path, capsys):
        cells = _spec().configs()
        directory = str(tmp_path / "cache")
        run_cells(cells, cache_dir=directory)
        assert main(["cache", "verify", directory]) == 0
        out = capsys.readouterr().out
        assert f"checked={len(cells)} corrupt=0" in out

        store = open_store(directory)
        try:
            corrupt_rows_in_store(store, [cells[0].config_hash])
        finally:
            store.close()
        assert main(["cache", "verify", directory]) == 1
        assert "corrupt=1 repaired=0" in capsys.readouterr().out
        assert main(["cache", "verify", directory, "--repair"]) == 0
        assert "corrupt=1 repaired=1" in capsys.readouterr().out
        assert main(["cache", "verify", directory]) == 0

        # The quarantined row is recomputed (and overwritten) on rerun.
        _, cached, report = run_cells(cells, cache_dir=directory)
        assert report.clean
        assert len(cached) == len(cells) - 1

    def test_verify_absent_directory_is_vacuously_clean(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope"
        assert main(["cache", "verify", str(missing)]) == 0
        assert "checked=0 corrupt=0" in capsys.readouterr().out
        assert main(["cache", "verify", str(missing), "--repair"]) == 0
        assert not missing.exists()


class TestSweepCliFaults:
    def test_env_hook_reaches_sweep_and_accounts_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sweep.registry import scenario

        cells = scenario("table1", quick=True).configs()
        poison = cells[0].config_hash
        monkeypatch.setenv(
            FAULTS_ENV, json.dumps({"poison_cells": [poison]})
        )
        cache = str(tmp_path / "cache")
        assert main([
            "sweep", "table1", "--quick", "--cache", cache,
            "--max-retries", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert f"computed={len(cells) - 1} cached=0 failed=1" \
            in captured.out
        assert f"quarantined {poison[:12]}" in captured.err

        # Fault-free rerun: only the quarantined cell is recomputed,
        # and the accounting line carries no failed= field.
        monkeypatch.delenv(FAULTS_ENV)
        assert main(["sweep", "table1", "--quick", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert f"computed=1 cached={len(cells) - 1}" in out
        assert "failed=" not in out

    def test_robustness_knobs_reject_bad_values(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "table1", "--quick", "--cache", "none",
                "--max-retries", "-1",
            ])
        with pytest.raises(SystemExit):
            main([
                "sweep", "table1", "--quick", "--cache", "none",
                "--chunk-timeout", "0",
            ])


class TestStatsRendering:
    def test_fault_counters_render_in_stats(self, tmp_path):
        from repro.obs import load_manifest, render_stats, trace_session

        cells = _spec().configs()
        path = str(tmp_path / "trace.jsonl")
        with trace_session(path):
            run_cells(
                cells,
                faults=FaultPlan(poison_cells=(cells[0].config_hash,)),
                max_retries=0,
            )
        manifest = load_manifest(path)
        assert manifest["counters"]["executor.quarantined_cells"] == 1
        assert manifest["counters"]["executor.chunk_failures"] >= 1
        rendered = render_stats(manifest, path=path)
        assert "fault handling" in rendered
        assert "executor.quarantined_cells" in rendered

    def test_clean_run_renders_no_fault_table(self, tmp_path):
        from repro.obs import load_manifest, render_stats, trace_session

        path = str(tmp_path / "trace.jsonl")
        with trace_session(path):
            run_cells(_spec().configs())
        rendered = render_stats(load_manifest(path), path=path)
        assert "fault handling" not in rendered
