"""[perf] Telemetry overhead: the observability layer must stay cheap.

Two pinned contracts for ``repro.obs`` on a Table-1-shaped rotor sweep:

* **disabled** — with no ambient telemetry, an instrumented site costs
  one module-global read and a None check.  The per-guard cost is
  measured directly and scaled by the number of guarded sites a sweep
  actually executes (taken from the enabled run's own counters);
  the projected overhead must stay under **2%** of the sweep's wall
  clock.
* **enabled** — a full trace session (spans, kernel counters, shard
  files, manifest checkpoints) must cost under **10%** against the
  untraced sweep, interleaved best-of-N on the same grid.

Both runs must produce identical metrics: tracing observes, never
perturbs.
"""

import os
import time

from conftest import record_sweep_bench
from repro.obs import telemetry
from repro.obs.manifest import trace_session
from repro.sweep import run_sweep
from repro.sweep.spec import InitFamily, ScenarioSpec

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")

#: Table-1 shape at reduced scale: one ring size, the k ladder, both
#: canonical init families, rotor cover times.
SPEC = ScenarioSpec(
    name="obs-overhead",
    ns=(128,) if QUICK else (256,),
    ks=(2, 4, 8, 16),
    families=(
        InitFamily("all_on_one", "toward_node0"),
        InitFamily("equally_spaced", "negative"),
    ),
    metrics=("cover",),
)

SAMPLES = 3

#: Ceilings asserted below and recorded into BENCH_sweep.json.
DISABLED_LIMIT = 0.02
ENABLED_LIMIT = 0.10

#: Guarded-site cost is measured over this many iterations.
GUARD_ITERATIONS = 200_000


def _time_sweep(trace_path=None):
    started = time.perf_counter()
    if trace_path is None:
        result = run_sweep(SPEC)
    else:
        with trace_session(str(trace_path)):
            result = run_sweep(SPEC)
    return time.perf_counter() - started, result


def _guard_cost_ns() -> float:
    """Nanoseconds per disabled guarded site (``active()`` + check)."""
    assert telemetry.active() is None
    active = telemetry.active
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(GUARD_ITERATIONS):
            tel = active()
            if tel is not None:  # pragma: no cover - telemetry is off
                tel.count("unreachable")
        best = min(best, time.perf_counter() - started)
    return best / GUARD_ITERATIONS * 1e9


def _guarded_sites(counters: dict) -> int:
    """Guarded emissions one sweep of SPEC executes, from its counters.

    Kernels emit once per invocation, the executor a handful of
    spans/counter merges per ``run_cells`` plus one ``cache.put`` span
    per chunk.  Doubled for headroom — the bound should survive
    instrumentation growth.
    """
    kernels = sum(
        counters.get(f"{prefix}.invocations", 0)
        for prefix in ("ring", "limit", "gaps", "walk", "general")
    )
    chunks = counters.get("executor.chunks", 0)
    return 2 * (kernels + 2 * chunks + 10)


def test_obs_overhead(benchmark, tmp_path):
    assert telemetry.active() is None

    off_times, on_times = [], []
    off_result = on_result = None
    for sample in range(SAMPLES):  # interleaved: shared noise cancels
        t_off, off_result = _time_sweep()
        off_times.append(t_off)
        t_on, on_result = _time_sweep(tmp_path / f"trace{sample}.jsonl")
        on_times.append(t_on)

    def traced_run():
        elapsed, _ = _time_sweep(tmp_path / "trace-bench.jsonl")
        on_times.append(elapsed)

    benchmark(traced_run)

    # Tracing must not change a single metric.
    assert [c.metrics for c in off_result.results] == [
        c.metrics for c in on_result.results
    ]

    t_off = min(off_times)
    t_on = min(on_times)
    enabled_overhead = t_on / t_off - 1.0

    from repro.obs.manifest import load_manifest

    counters = load_manifest(str(tmp_path / "trace0.jsonl"))["counters"]
    guard_ns = _guard_cost_ns()
    sites = _guarded_sites(counters)
    disabled_overhead = sites * guard_ns * 1e-9 / t_off

    benchmark.extra_info["sweep wall (untraced, s)"] = round(t_off, 4)
    benchmark.extra_info["sweep wall (traced, s)"] = round(t_on, 4)
    benchmark.extra_info["enabled overhead"] = round(enabled_overhead, 4)
    benchmark.extra_info["guard cost (ns)"] = round(guard_ns, 1)
    benchmark.extra_info["guarded sites"] = sites
    benchmark.extra_info["disabled overhead"] = round(disabled_overhead, 6)
    record_sweep_bench(
        "obs_overhead",
        {
            "grid": "n=256, k in (2,4,8,16), 2 families, cover",
            "wall_untraced_s": round(t_off, 4),
            "wall_traced_s": round(t_on, 4),
            "enabled_overhead": round(enabled_overhead, 4),
            "enabled_limit": ENABLED_LIMIT,
            "guard_cost_ns": round(guard_ns, 1),
            "guarded_sites": sites,
            "disabled_overhead": round(disabled_overhead, 6),
            "disabled_limit": DISABLED_LIMIT,
        },
    )

    assert disabled_overhead < DISABLED_LIMIT, (
        f"disabled-path overhead {disabled_overhead:.2%} exceeds "
        f"{DISABLED_LIMIT:.0%} ({sites} sites x {guard_ns:.0f}ns "
        f"against {t_off:.3f}s)"
    )
    assert enabled_overhead < ENABLED_LIMIT, (
        f"enabled tracing overhead {enabled_overhead:.2%} exceeds "
        f"{ENABLED_LIMIT:.0%} (traced {t_on:.3f}s vs {t_off:.3f}s)"
    )
