"""[perf] Round-fused kernels vs the per-round dispatch cadence.

Round fusion attacks the last fixed cost of the batch kernels: the
Python dispatch per simulated round (walk kernel: per 1024-round
block).  One fused epoch advances ``fuse_rounds`` rounds/blocks per
trip through the interpreter, with cover/stabilization detection
deferred to the epoch boundary and the exact round recovered by
replaying the final epoch — results are bit-identical at every fusion
factor (asserted here *before* anything is timed; see
``tests/test_sweep_fused.py`` for the randomized version).

Two measurements, both interleaved best-of-3 (A/B alternation, so
machine noise drifts across both sides equally):

* **walk** — the fused batch walk kernel against the serial
  per-config ``RingRandomWalks`` loop a sweep would otherwise run.
  This is the headline: the walk kernel is RNG-throughput-bound, and
  fusing block dispatch is what closed the gap from ~2.7x to >5x.
* **ring limit search** — ``batch_limit_cycles`` at ``fuse_rounds=16``
  against the per-round cadence (``fuse_rounds=1``) on a long-period
  stabilization shape, where deferred fingerprint comparison pays.
  The win is real but modest (~15%), and small shapes that resolve
  inside one epoch regress — which is why the ring kernel's default
  stays ``fuse_rounds=1``, the factor every sweep runs at; larger
  factors are reached only by calling the kernel directly.

``BENCH_SWEEP_QUICK=1`` shrinks shapes and relaxes floors for CI
smoke runners (noisy-neighbor machines); the full shapes carry the
acceptance bars.
"""

import os
import time

import numpy as np

from conftest import record_sweep_bench
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep.batch_ring import batch_limit_cycles
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

# Ring side: a long-period limit-cycle search (periods up to ~2n make
# phase 1 run long enough for deferred comparison to matter).
RING_N = 64 if QUICK else 128
RING_LANES = 32 if QUICK else 64
RING_K = 3
RING_MAX_ROUNDS = 64 * RING_N * RING_N
RING_FUSE = 16
#: Fusion must not regress the ring pipeline on its favourable shape;
#: the measured win (~1.15x full shape) is recorded, not asserted —
#: single-digit percentages drown in smoke-runner noise.
RING_MIN_RATIO = 0.8 if QUICK else 0.9

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


def _ring_config() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(
        derive_seed(0, "bench-sweep-fused-ring", RING_N, RING_LANES)
    )
    pointers = rng.choice(
        np.array([-1, 1], dtype=np.int64), size=(RING_LANES, RING_N)
    )
    counts = np.zeros((RING_LANES, RING_N), dtype=np.int64)
    for lane in range(RING_LANES):
        counts[lane, rng.choice(RING_N, size=RING_K, replace=False)] = 1
    return pointers, counts


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


def test_fused_ring_limit_search(benchmark):
    pointers, counts = _ring_config()

    def fused():
        return batch_limit_cycles(
            RING_N, pointers, counts, RING_MAX_ROUNDS, strict=False,
            fuse_rounds=RING_FUSE,
        )

    def unfused():
        return batch_limit_cycles(
            RING_N, pointers, counts, RING_MAX_ROUNDS, strict=False,
        )

    fused_result = fused()
    unfused_result = unfused()
    np.testing.assert_array_equal(
        fused_result.periods, unfused_result.periods
    )
    np.testing.assert_array_equal(
        fused_result.preperiods, unfused_result.preperiods
    )

    fused_best, unfused_best = _interleaved_best(fused, unfused)
    benchmark.pedantic(fused, rounds=1, iterations=1)

    ratio = unfused_best / fused_best
    benchmark.extra_info["fused/unfused speedup"] = round(ratio, 2)
    record_sweep_bench(
        "fused_ring_limit",
        {
            "n": RING_N,
            "lanes": RING_LANES,
            "k": RING_K,
            "fuse_rounds": RING_FUSE,
            "quick": QUICK,
            "fused_seconds": round(fused_best, 4),
            "unfused_seconds": round(unfused_best, 4),
            "speedup_vs_unfused": round(ratio, 2),
        },
    )
    assert ratio >= RING_MIN_RATIO, (
        f"fuse_rounds={RING_FUSE} runs at {ratio:.2f}x the per-round "
        f"cadence ({fused_best:.3f}s vs {unfused_best:.3f}s)"
    )
