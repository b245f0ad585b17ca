"""[L13] Lemma 13: the profile sequence exists with properties (1)-(6),
and the discrete worst-case run follows it (correlation ~1).

The discrete run steps the path on the one ring-and-path stepper
(``repro.sweep.batch_ring.Trajectory``: O(k) rounds and straight-run
jumps); the same run on the ``PathRotorRouter`` oracle must return
identical arrays, and the stepper's run must be at least
``MIN_SPEEDUP`` times faster than it.
"""

import time

from conftest import run_once

import numpy as np

from repro.analysis.domains_stats import final_profile_vs_lemma13
from repro.core.path import PathRotorRouter
from repro.theory.bounds import harmonic_number
from repro.theory.sequences import solve_profile

MIN_SPEEDUP = 1.5


def _serial_profile(n, k, rounds_budget):
    """``final_profile_vs_lemma13`` on the path oracle."""
    engine = PathRotorRouter(n, [-1] * n, [0] * k, track_counts=False)
    for _ in range(rounds_budget):
        if engine.unvisited <= max(2, n // 50):
            break
        engine.step()
    right_ends = [0] * k
    for _ in range(4 * n):
        engine.step()
        for i, position in enumerate(sorted(engine.positions(), reverse=True)):
            if position > right_ends[i]:
                right_ends[i] = position
    boundaries = right_ends + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    predicted = np.asarray(solve_profile(k).a[1:k + 1], dtype=float)
    return sizes / sizes.sum(), predicted / predicted.sum()


def test_profile_properties_across_k(benchmark):
    ks = (4, 8, 16, 32, 64, 128, 256)

    def solve_all():
        return {k: solve_profile(k) for k in ks}

    profiles = run_once(benchmark, solve_all)
    for k, profile in profiles.items():
        h_k = harmonic_number(k)
        assert abs(sum(profile.a[1:]) - 1.0) < 1e-9           # (3)
        assert all(
            profile.a[i] > profile.a[i + 1] for i in range(1, k)
        )                                                      # (2)
        assert 1 / (4 * (h_k + 1)) <= profile.a[1] <= 1 / h_k  # (5)
        assert all(
            profile.a[i] >= 1 / (4 * i * (h_k + 1))
            for i in range(1, k + 1)
        )                                                      # (6)
        assert max(
            abs(profile.residual(i)) for i in range(1, k + 1)
        ) < 1e-6                                               # (4)
    benchmark.extra_info["a1 values"] = {
        k: round(p.a[1], 4) for k, p in profiles.items()
    }


def test_discrete_run_matches_profile(benchmark):
    n, k = 400, 8
    fast_timings: list[float] = []
    serial_timings: list[float] = []
    outputs: dict[str, tuple] = {}

    def run_fast():
        started = time.perf_counter()
        outputs["fast"] = final_profile_vs_lemma13(n, k, rounds_budget=n * n)
        fast_timings.append(time.perf_counter() - started)
        return outputs["fast"]

    def run_serial():
        started = time.perf_counter()
        outputs["serial"] = _serial_profile(n, k, n * n)
        serial_timings.append(time.perf_counter() - started)

    # Interleaved best-of-3 around one serial run, timed inside the
    # workload as in bench_fig1_border_types.py.
    benchmark(run_fast)
    run_serial()
    while len(fast_timings) < 3:
        run_fast()

    measured, predicted = outputs["fast"]
    assert all(map(np.array_equal, outputs["fast"], outputs["serial"]))
    correlation = float(np.corrcoef(measured, predicted)[0, 1])
    max_error = float(np.abs(measured - predicted).max())
    speedup = min(serial_timings) / min(fast_timings)
    benchmark.extra_info["correlation"] = round(correlation, 4)
    benchmark.extra_info["max share error"] = round(max_error, 4)
    benchmark.extra_info["fused_sec"] = round(min(fast_timings), 4)
    benchmark.extra_info["serial_sec"] = round(min(serial_timings), 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    assert correlation > 0.99
    assert max_error < 0.05
    assert speedup >= MIN_SPEEDUP, (
        f"fused run only {speedup:.1f}x the path oracle "
        f"({min(fast_timings):.3f}s vs {min(serial_timings):.3f}s)"
    )
