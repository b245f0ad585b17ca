"""[perf] The round-fused walk kernel vs the per-config reference loop.

Round fusion attacks the last fixed cost of the walk kernel: the
Python dispatch per 1024-round block.  One fused epoch advances
``batch_walk.FUSE_ROUNDS`` blocks per trip through the interpreter —
results are bit-identical at every fusion factor (asserted here
*before* anything is timed; see ``tests/test_sweep_fused.py`` for the
randomized version).  The ring kernels have no fusion: they run one
per-round cadence.

The fused batch walk kernel runs against the serial per-config
``RingRandomWalks`` loop a sweep would otherwise run, interleaved
best-of-3 (A/B alternation, so machine noise drifts across both sides
equally).  The walk kernel is RNG-throughput-bound, and fusing block
dispatch is what closed the gap from ~2.7x to >5x.

``BENCH_SWEEP_QUICK=1`` shrinks shapes and relaxes floors for CI
smoke runners (noisy-neighbor machines); the full shapes carry the
acceptance bars.
"""

import os
import time

import numpy as np

from conftest import record_sweep_bench
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep.batch_walk import BatchRingWalks, WalkLane
from repro.util.rng import derive_seed

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")

# Walk side: the bench_sweep_walk shape (the kernel's sweep workload).
# The quick shape stays large enough that the batch layout's advantage
# (~3x there) clears the smoke floor with margin; shrinking further
# drowns the kernel in fixed per-run costs.
WALK_N = 128 if QUICK else 256
WALK_LANES = 64 if QUICK else 128
WALK_K = 4
WALK_MAX_ROUNDS = 64 * WALK_N * WALK_N
#: CI smoke floor vs the acceptance bar of the fused kernel.
WALK_MIN_SPEEDUP = 2.0 if QUICK else 5.0

BEST_OF = 3


def _walk_lanes() -> list[WalkLane]:
    rng = np.random.default_rng(
        derive_seed(0, "bench-sweep-fused-walk", WALK_N, WALK_LANES)
    )
    return [
        WalkLane(
            positions=tuple(
                int(p) for p in rng.integers(0, WALK_N, size=WALK_K)
            ),
            seed=int(rng.integers(0, 2**31)),
        )
        for _ in range(WALK_LANES)
    ]


def _interleaved_best(side_a, side_b, repeats=BEST_OF):
    """Best wall-clock of each side, alternating A/B per repeat."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        side_a()
        best_a = min(best_a, time.perf_counter() - started)
        started = time.perf_counter()
        side_b()
        best_b = min(best_b, time.perf_counter() - started)
    return best_a, best_b


def test_fused_walk_vs_reference_loop(benchmark):
    lanes = _walk_lanes()

    def fused():
        kernel = BatchRingWalks(
            WALK_N, [WalkLane(l.positions, l.seed) for l in lanes]
        )
        return kernel.run_until_covered(WALK_MAX_ROUNDS)

    def reference():
        return [
            RingRandomWalks(
                WALK_N, lane.positions, seed=lane.seed
            ).run_until_covered(WALK_MAX_ROUNDS)
            for lane in lanes
        ]

    # Bit-identity before timing: same seeds, same covers, visit for
    # visit — the measured gap is pure dispatch/layout, not less work.
    fused_covers = fused()
    assert [int(c) for c in fused_covers] == reference()

    fused_best, reference_best = _interleaved_best(fused, reference)
    benchmark.pedantic(fused, rounds=1, iterations=1)

    total_rounds = int(fused_covers.sum())
    speedup = reference_best / fused_best
    benchmark.extra_info["speedup vs per-config loop"] = round(speedup, 1)
    benchmark.extra_info["fused walk-rounds/sec"] = round(
        total_rounds / fused_best
    )
    record_sweep_bench(
        "fused_walk",
        {
            "n": WALK_N,
            "lanes": WALK_LANES,
            "k": WALK_K,
            "quick": QUICK,
            "fused_seconds": round(fused_best, 4),
            "reference_seconds": round(reference_best, 4),
            "speedup_vs_reference": round(speedup, 1),
        },
    )
    assert speedup >= WALK_MIN_SPEEDUP, (
        f"fused walk kernel sustains only {speedup:.1f}x the per-config "
        f"loop ({fused_best:.3f}s vs {reference_best:.3f}s)"
    )

