"""[perf] Supervisor overhead: the fault-tolerant dispatcher is free.

The supervising dispatcher (per-chunk retry/timeout/bisection
bookkeeping, ``apply_async`` handles polled in a scheduling loop)
replaced the historical bare dispatch loops.  This benchmark keeps the
pre-supervisor loops alive verbatim — a plain in-process ``for`` loop
over chunk payloads, and ``Pool.imap_unordered`` for workers — and
races them against :class:`repro.sweep.executor._Supervisor` with no
faults injected, on a compute-dominated grid.

Headline number (pinned into ``BENCH_sweep.json``): supervisor
wall-clock over baseline wall-clock, interleaved best-of-N, required
<= 1.05 in-process.  The pool path is reported alongside with a
looser bound: its poll interval (20ms) adds bounded completion-
detection latency that the serial path does not have.
"""

import os
import time
from unittest import mock

from conftest import record_sweep_bench
from repro.sweep import executor
from repro.sweep.executor import (
    FailureReport,
    _plan_chunks,
    _Supervisor,
    compute_chunk,
)
from repro.sweep.spec import InitFamily, ScenarioSpec

QUICK = bool(os.environ.get("BENCH_FAULTS_QUICK"))

#: Interleaved timing samples per dispatcher (min is reported).
SAMPLES = 2 if QUICK else 3

#: Pool-path overhead allowance: poll-interval completion-detection
#: latency, bounded by POLL_INTERVAL per chunk, amortized over
#: compute-dominated chunks.
POOL_RATIO_LIMIT = 1.15


def _payloads() -> list[dict]:
    """A compute-dominated grid: few chunks, each hundreds of ms."""
    spec = ScenarioSpec(
        name="bench-faults",
        ns=(192, 256) if QUICK else (384, 512),
        ks=(2, 3, 4),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
    )
    # Three-lane chunks, dense ones unmerged: many chunks, each still
    # compute-dominated.
    with mock.patch.object(executor, "CHUNK_LANES", 3), mock.patch.object(
        executor, "CHUNK_ELEMENTS", 0
    ):
        return _plan_chunks(spec.configs(), jobs=2)


def _run_baseline_serial(payloads: list[dict]) -> dict:
    """The pre-supervisor in-process dispatch loop, verbatim."""
    results: dict[str, dict] = {}
    for payload in payloads:
        for config_hash, metrics in compute_chunk(payload):
            results[config_hash] = metrics
    return results


def _run_baseline_pool(payloads: list[dict], jobs: int) -> dict:
    """The pre-supervisor ``Pool.imap_unordered`` loop, verbatim."""
    import multiprocessing

    results: dict[str, dict] = {}
    with multiprocessing.Pool(processes=jobs) as pool:
        for pairs in pool.imap_unordered(compute_chunk, payloads):
            for config_hash, metrics in pairs:
                results[config_hash] = metrics
    return results


def _run_supervised(payloads: list[dict], jobs: int) -> dict:
    results: dict[str, dict] = {}
    report = FailureReport()
    supervisor = _Supervisor(
        jobs=jobs,
        commit=lambda pairs: results.update(pairs),
        quarantine=report.quarantined.setdefault,
        report=report,
        max_retries=2,
        chunk_timeout=600.0 if jobs > 1 else None,
    )
    supervisor.run(payloads)
    assert report.clean, report.quarantined
    return results


def _race(payloads: list[dict], baseline, supervised) -> tuple[float, float]:
    """Interleaved best-of-``SAMPLES`` wall clock for both dispatchers.

    Interleaving (A, B, A, B, ...) rather than timing each side in a
    block keeps slow-machine drift (thermal throttling, a noisy CI
    neighbor arriving mid-benchmark) from landing entirely on one side
    of the ratio.
    """
    expected = baseline(payloads)  # warm-up: allocators, imports
    best_base = best_sup = float("inf")
    for _ in range(SAMPLES):
        started = time.perf_counter()
        assert baseline(payloads) == expected
        best_base = min(best_base, time.perf_counter() - started)
        started = time.perf_counter()
        assert supervised(payloads) == expected
        best_sup = min(best_sup, time.perf_counter() - started)
    return best_base, best_sup


def test_supervisor_overhead_serial(benchmark):
    """In-process supervision costs < 5% over the bare loop."""
    payloads = _payloads()
    base, sup = benchmark.pedantic(
        _race,
        args=(payloads, _run_baseline_serial,
              lambda p: _run_supervised(p, jobs=1)),
        rounds=1,
        iterations=1,
    )
    ratio = sup / base
    benchmark.extra_info["chunks"] = len(payloads)
    benchmark.extra_info["baseline sec"] = round(base, 3)
    benchmark.extra_info["supervised sec"] = round(sup, 3)
    benchmark.extra_info["overhead ratio"] = round(ratio, 3)
    record_sweep_bench(
        "faults_supervisor_serial",
        {
            "chunks": len(payloads),
            "baseline_sec": round(base, 3),
            "supervised_sec": round(sup, 3),
            "overhead_ratio": round(ratio, 3),
            "limit": 1.05,
        },
    )
    assert ratio <= 1.05, (
        f"serial supervision overhead {ratio:.3f}x exceeds 1.05x "
        f"({sup:.3f}s vs {base:.3f}s over {len(payloads)} chunks)"
    )


def test_supervisor_overhead_pool(benchmark):
    """Supervised workers stay within poll-latency of imap_unordered."""
    payloads = _payloads()
    base, sup = benchmark.pedantic(
        _race,
        args=(payloads, lambda p: _run_baseline_pool(p, jobs=2),
              lambda p: _run_supervised(p, jobs=2)),
        rounds=1,
        iterations=1,
    )
    ratio = sup / base
    benchmark.extra_info["chunks"] = len(payloads)
    benchmark.extra_info["baseline sec"] = round(base, 3)
    benchmark.extra_info["supervised sec"] = round(sup, 3)
    benchmark.extra_info["overhead ratio"] = round(ratio, 3)
    record_sweep_bench(
        "faults_supervisor_pool",
        {
            "jobs": 2,
            "chunks": len(payloads),
            "baseline_sec": round(base, 3),
            "supervised_sec": round(sup, 3),
            "overhead_ratio": round(ratio, 3),
            "limit": POOL_RATIO_LIMIT,
        },
    )
    assert ratio <= POOL_RATIO_LIMIT, (
        f"pool supervision overhead {ratio:.3f}x exceeds "
        f"{POOL_RATIO_LIMIT}x "
        f"({sup:.3f}s vs {base:.3f}s over {len(payloads)} chunks)"
    )
