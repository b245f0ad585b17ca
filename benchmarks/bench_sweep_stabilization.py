"""[perf] Array-native limit-cycle pipeline vs per-lane Python bookkeeping.

The stabilization sweep's hot path is ``batch_limit_cycles`` +
``batch_return_gaps``.  Before the array-native rewrite, the kernel
stepped all lanes with one vectorized round but then dropped into
Python: byte keys per pending lane (``state_keys`` built a
``dict[int, bytes]`` every round), a per-lane Brent ``(power, lam)``
loop, and a gap scan allocating full-batch temporaries for
``periods.max()`` rounds.  The rewrite moves all of that into numpy —
uint64 word fingerprints (one wrapping matmul per round), byte-exact
confirmation only on fingerprint hits, lane compaction, sorted-prefix
schedules.

This benchmark pins the delivered speedup on the stabilization
scenario shape (n=512, 256 lanes, mixed initialization families) as
the sweep actually executes it:

* **before** — the pre-PR pipeline (kept verbatim below) over the
  pre-PR executor chunking (fixed ``DEFAULT_CHUNK_LANES = 64``, the
  only option the executor had);
* **after** — the array-native pipeline over the whole batch in one
  call, at the compaction ratio every sweep runs
  (``batch_ring.COMPACT_RATIO``).  The scenario itself has 5 cells per
  ring size, so the executor's ``CHUNK_LANES = 64`` also gives it one
  chunk per size.

The legacy pipeline stepped a masked ``BatchRingKernel.step`` and
keyed lanes by ``state_keys``.  ``_LegacyKernel`` below is a
standalone copy of that kernel's constructor and round with both, so
the baseline times the same code as before and cannot move with the
production kernel; the cover tracking that kernel also carried is left
out, as the legacy pipeline never turned it on.

The whole-batch legacy time is recorded too, isolating the pipeline
win from the scheduling win.  The workload is the scenario's k-axis
ladder over patrol families (``equally_spaced`` under positive /
uniform / alternating pointers, plus ``half_ring`` and ``clustered``
placements), whose limit cycles span periods 16..2n — the long-period
tail is thin, exactly where the old full-width gap scan burned
``periods.max()`` full-batch rounds.  Both implementations do
identical work per lane and must return identical results; the
measured gap is bookkeeping and scheduling overhead only.

Headline numbers land in ``extra_info`` and in ``BENCH_sweep.json``
(see ``conftest.record_sweep_bench``) so the perf trajectory is
tracked across PRs.  ``BENCH_SWEEP_QUICK=1`` shrinks the shape for CI
smoke runs.
"""

import os
import time
from collections import namedtuple

import numpy as np

from conftest import record_sweep_bench
from repro.core import placement, pointers
from repro.sweep.batch_ring import (
    batch_limit_cycles,
    batch_return_gaps,
    lanes_from_configs,
)

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")
N = 128 if QUICK else 512
LANES = 64 if QUICK else 256
MAX_ROUNDS = 1024 if QUICK else 4096
#: Pre-PR executor chunk size (DEFAULT_CHUNK_LANES at the time).
LEGACY_CHUNK_LANES = 16 if QUICK else 64
#: CI smoke runners are noisy-neighbor machines; the full shape keeps
#: the acceptance bar of the rewrite, the quick shape a floor.
MIN_SPEEDUP = 2.0 if QUICK else 5.0


# ----------------------------------------------------------------------
# pre-PR reference implementation (verbatim), the benchmark baseline
# ----------------------------------------------------------------------
#: The pre-PR limit-cycle record: preperiods and periods only (the
#: pipeline's ``BatchLimitCycles`` also carries cycle-start rows).
_LegacyCycles = namedtuple("_LegacyCycles", "preperiods periods")


class _LegacyKernel:
    """The pre-PR ``BatchRingKernel``: masked step and byte keys."""

    def __init__(self, n: int, pointers: np.ndarray, counts: np.ndarray):
        if n < 3:
            raise ValueError(f"ring requires n >= 3, got {n}")
        directions = np.asarray(pointers)
        initial = np.asarray(counts)
        if directions.ndim != 2 or directions.shape[1] != n:
            raise ValueError(
                f"pointers must have shape (B, {n}), got {directions.shape}"
            )
        if initial.shape != directions.shape:
            raise ValueError(
                f"counts shape {initial.shape} does not match pointers "
                f"shape {directions.shape}"
            )
        if not np.all((directions == 1) | (directions == -1)):
            raise ValueError("pointers must be +1 or -1")
        if np.any(initial < 0):
            raise ValueError("counts must be non-negative")
        per_lane = initial.sum(axis=1)
        if np.any(per_lane < 1):
            raise ValueError("every lane requires at least one agent")

        self.n = n
        self.num_lanes = directions.shape[0]
        self.round = 0
        most = int(per_lane.max())
        dtype = np.int8 if most <= 126 else (
            np.int16 if most <= 32766 else np.int64
        )
        # Pointer bit: 1 = clockwise (+1), 0 = anticlockwise (-1).
        self._ptr = (directions == 1).astype(dtype)
        self._counts = initial.astype(dtype)
        self._next = np.empty_like(self._counts)
        self._fwd = np.empty_like(self._counts)
        self._bwd = np.empty_like(self._counts)

    def _step_arith(self) -> None:
        """One round of the rotor-router arithmetic, no cover tracking."""
        c, p = self._counts, self._ptr
        fwd, bwd, nxt = self._fwd, self._bwd, self._next
        np.add(c, p, out=fwd)
        np.right_shift(fwd, 1, out=fwd)
        np.subtract(c, fwd, out=bwd)
        np.bitwise_xor(p, c, out=p)
        np.bitwise_and(p, 1, out=p)
        # arrivals(v) = fwd(v-1) + bwd(v+1), written into the back buffer
        np.add(fwd[:, :-2], bwd[:, 2:], out=nxt[:, 1:-1])
        np.add(fwd[:, -1], bwd[:, 1], out=nxt[:, 0])
        np.add(fwd[:, -2], bwd[:, 0], out=nxt[:, -1])
        self._counts, self._next = nxt, self._counts
        self.round += 1

    def _step_arith_subset(self, active: np.ndarray) -> None:
        """Advance only the ``active`` lanes (cost proportional to them).

        Used by the masked schedules of the limit-cycle search and the
        gap scan, where most lanes end up frozen: the frozen majority
        is never touched, instead of being snapshotted and restored.
        """
        c = self._counts[active]
        p = self._ptr[active]
        fwd = (c + p) >> 1
        bwd = c - fwd
        nxt = np.empty_like(c)
        nxt[:, 1:-1] = fwd[:, :-2] + bwd[:, 2:]
        nxt[:, 0] = fwd[:, -1] + bwd[:, 1]
        nxt[:, -1] = fwd[:, -2] + bwd[:, 0]
        self._counts[active] = nxt
        self._ptr[active] = (p ^ c) & 1
        self.round += 1

    def step(
        self,
        lane_mask: np.ndarray | None = None,
        need_visits: bool = True,
    ) -> np.ndarray | None:
        """Advance one synchronous round in every (masked) lane.

        ``lane_mask`` is an optional ``(B,)`` boolean array; lanes where
        it is false keep their configuration unchanged (used to freeze
        lanes whose per-lane schedule has ended).  Returns a ``(B, n)``
        boolean array marking the nodes that received at least one
        agent this round (all-false rows for frozen lanes) — or None
        when the caller passes ``need_visits=False``, which keeps a
        masked step's cost proportional to the active lanes (the
        limit-cycle search's tail case).

        ``round`` counts ``step`` calls; with masks, callers manage
        per-lane time axes themselves.
        """
        if lane_mask is None:
            self._step_arith()
            return self._counts != 0 if need_visits else None
        active = np.flatnonzero(lane_mask)
        self._step_arith_subset(active)
        if not need_visits:
            return None
        visits = np.zeros((self.num_lanes, self.n), dtype=bool)
        visits[active] = self._counts[active] != 0
        return visits

    def state_keys(self, lanes: "list[int] | None" = None) -> dict[int, bytes]:
        """Configuration keys (pointer bits + counts) by lane index.

        Two lanes of same-dtype kernels share a key iff they are in the
        same configuration; used by the batch Brent search, which
        passes only the still-unresolved ``lanes`` so the search tail
        scales with them rather than the whole batch.
        """
        if lanes is None:
            lanes = range(self.num_lanes)
        ptr_rows = self._ptr
        count_rows = self._counts
        return {
            b: ptr_rows[b].tobytes() + count_rows[b].tobytes()
            for b in lanes
        }


def _legacy_batch_limit_cycles(n, ptr, cnt, max_rounds, strict=True):
    hare = _LegacyKernel(n, ptr, cnt)
    num_lanes = hare.num_lanes
    saved = hare.state_keys()  # tortoise snapshots (initial configuration)
    power = np.ones(num_lanes, dtype=np.int64)
    lam = np.zeros(num_lanes, dtype=np.int64)
    periods = np.zeros(num_lanes, dtype=np.int64)
    pending = list(range(num_lanes))
    pending_mask = np.ones(num_lanes, dtype=bool)
    steps = 0
    while pending:
        if steps >= max_rounds:
            if strict:
                raise RuntimeError(
                    f"{len(pending)} lanes have no limit cycle confirmed "
                    f"within {max_rounds} rounds"
                )
            periods[pending] = -1
            break
        hare.step(lane_mask=pending_mask, need_visits=False)
        steps += 1
        keys = hare.state_keys(pending)
        still = []
        for b in pending:
            lam[b] += 1
            if keys[b] == saved[b]:
                periods[b] = lam[b]
                pending_mask[b] = False
            else:
                if lam[b] == power[b]:
                    saved[b] = keys[b]
                    power[b] *= 2
                    lam[b] = 0
                still.append(b)
        pending = still

    tortoise = _LegacyKernel(n, ptr, cnt)
    hare = _LegacyKernel(n, ptr, cnt)
    for t in range(int(periods.max())):
        hare.step(lane_mask=periods > t, need_visits=False)
    preperiods = np.zeros(num_lanes, dtype=np.int64)
    resolved = periods > 0
    tortoise_keys = tortoise.state_keys()
    hare_keys = hare.state_keys()
    unmatched = np.array(
        [
            resolved[b] and tortoise_keys[b] != hare_keys[b]
            for b in range(num_lanes)
        ]
    )
    steps = 0
    while unmatched.any():
        if steps > max_rounds:
            raise RuntimeError(
                f"preperiod exceeds {max_rounds} rounds (inconsistent state)"
            )
        tortoise.step(lane_mask=unmatched, need_visits=False)
        hare.step(lane_mask=unmatched, need_visits=False)
        steps += 1
        preperiods[unmatched] += 1
        open_lanes = np.flatnonzero(unmatched)
        tortoise_keys = tortoise.state_keys(open_lanes)
        hare_keys = hare.state_keys(open_lanes)
        for b in open_lanes:
            if tortoise_keys[b] == hare_keys[b]:
                unmatched[b] = False
    preperiods[~resolved] = -1
    return _LegacyCycles(preperiods=preperiods, periods=periods)


def _legacy_batch_return_gaps(n, ptr, cnt, cycles):
    runner = _LegacyKernel(n, ptr, cnt)
    num_lanes = runner.num_lanes
    preperiods, periods = cycles.preperiods, cycles.periods
    for t in range(int(preperiods.max())):
        runner.step(lane_mask=preperiods > t, need_visits=False)
    first = np.full((num_lanes, n), -1, dtype=np.int64)
    last = np.full((num_lanes, n), -1, dtype=np.int64)
    max_gap = np.zeros((num_lanes, n), dtype=np.int64)
    for t in range(int(periods.max())):
        visits = runner.step(lane_mask=periods > t)
        seen_before = visits & (last >= 0)
        gaps = t - last
        np.maximum(max_gap, np.where(seen_before, gaps, 0), out=max_gap)
        first[visits & (first < 0)] = t
        last[visits] = t
    wrap = first + periods[:, np.newaxis] - last
    gaps = np.maximum(max_gap, wrap).astype(float)
    gaps[first < 0] = np.inf
    return gaps.max(axis=1), gaps.min(axis=1)


def _workload():
    """The scenario's k-ladder over patrol families at (N, LANES).

    Periods span 2N/k for k in the ladder up to the thin 2N tail
    (``alternating`` pointers at a non-divisor k); preperiods stay
    small, so the run is dominated by the Brent search over many
    concurrently-live lanes plus the one-period gap scan — the two
    paths this PR vectorizes.
    """
    configs = []
    for lane in range(LANES):
        r = lane % 16
        if r < 6:
            k = (16, 32, 64, 32, 16, 64)[r]
            agents = placement.equally_spaced(N, k)
            dirs = pointers.ring_positive(N, agents)
        elif r < 12:
            k = (16, 32, 64, 64, 32, 16)[r - 6]
            agents = placement.equally_spaced(N, k)
            dirs = pointers.ring_uniform(N)
        elif r == 12:
            agents = placement.half_ring(N, 2)
            dirs = pointers.ring_positive(N, agents)
        elif r == 13:
            agents = placement.clustered(N, 2, 1, seed=lane)
            dirs = pointers.ring_positive(N, agents)
        elif r == 14:
            agents = placement.equally_spaced(N, 64)
            dirs = pointers.ring_alternating(N)
        else:
            # the thin long-period tail: period 2N at this k
            agents = placement.equally_spaced(N, 57 if not QUICK else 29)
            dirs = pointers.ring_alternating(N)
        configs.append((dirs, agents))
    return configs


def _run_pipeline(impl_cycles, impl_gaps, configs):
    """One chunk through limit cycles + gaps; returns stacked results."""
    ptr, cnt = lanes_from_configs(N, configs)
    cycles = impl_cycles(N, ptr, cnt, MAX_ROUNDS, strict=False)
    lanes = np.flatnonzero(cycles.periods > 0)
    worst = np.full(len(configs), np.nan)
    best = np.full(len(configs), np.nan)
    if lanes.size:
        worst[lanes], best[lanes] = impl_gaps(ptr, cnt, cycles, lanes)
    return cycles.preperiods, cycles.periods, worst, best


def _gaps(ptr, cnt, cycles, lanes):
    """The pipeline's gap scan: from the resolved lanes' cycle starts."""
    return batch_return_gaps(N, cycles.take(lanes))


def _legacy_gaps(ptr, cnt, cycles, lanes):
    """The pre-PR gap scan: from the resolved lanes' inputs."""
    return _legacy_batch_return_gaps(
        N, ptr[lanes], cnt[lanes],
        _LegacyCycles(
            preperiods=cycles.preperiods[lanes],
            periods=cycles.periods[lanes],
        ),
    )


def _run_new(configs):
    # One full-width chunk, exactly as a sweep runs it.
    return _run_pipeline(batch_limit_cycles, _gaps, configs)


def _run_legacy(configs, chunk_lanes):
    parts = [
        _run_pipeline(
            _legacy_batch_limit_cycles, _legacy_gaps,
            configs[start:start + chunk_lanes],
        )
        for start in range(0, len(configs), chunk_lanes)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _prewarm_allocator():
    """Put glibc's allocator in its steady state before timing.

    Whether MB-scale numpy temporaries come from the heap or fresh
    mmaps depends on allocator history (glibc raises its dynamic mmap
    threshold when large blocks are freed); a few sub-cap alloc/free
    cycles pin that state so the measured ratio does not depend on
    what ran earlier in the process.
    """
    for _ in range(4):
        block = np.zeros(8 * 1024 * 1024, dtype=np.uint8)
        del block


def test_stabilization_pipeline_speedup(benchmark):
    configs = _workload()
    _prewarm_allocator()
    new_timings: list[float] = []
    legacy_timings: list[float] = []
    whole_timings: list[float] = []

    def run_new():
        started = time.perf_counter()
        out = _run_new(configs)
        new_timings.append(time.perf_counter() - started)
        return out

    def run_legacy():
        started = time.perf_counter()
        out = _run_legacy(configs, LEGACY_CHUNK_LANES)
        legacy_timings.append(time.perf_counter() - started)
        return out

    # Manual timing inside the workload keeps the ratio available even
    # under --benchmark-disable; the two sides run interleaved with a
    # best-of-3 floor so thermal / allocator / noisy-neighbor effects
    # hit both alike.
    new_out = benchmark(run_new)
    legacy_out = run_legacy()
    while len(new_timings) < 3:
        run_new()
        run_legacy()
    # One whole-batch legacy pass isolates the pipeline win from the
    # chunk-scheduling win (recorded, not asserted).
    started = time.perf_counter()
    whole_out = _run_legacy(configs, LANES)
    whole_timings.append(time.perf_counter() - started)

    # Exactness first: the speedup only counts if the results are
    # identical — preperiods, periods, gaps, truncated (-1) lanes.
    for mine, theirs in zip(new_out, legacy_out):
        assert np.array_equal(mine, theirs, equal_nan=True)
    for mine, theirs in zip(new_out, whole_out):
        assert np.array_equal(mine, theirs, equal_nan=True)

    elapsed = min(new_timings)
    legacy_elapsed = min(legacy_timings)
    speedup = legacy_elapsed / elapsed
    preperiods, periods = new_out[0], new_out[1]
    resolved = periods > 0
    lane_rounds = int(
        (preperiods[resolved] + 2 * periods[resolved]).sum()
        + (~resolved).sum() * MAX_ROUNDS
    )
    payload = {
        "n": N,
        "lanes": LANES,
        "max_rounds": MAX_ROUNDS,
        "legacy_chunk_lanes": LEGACY_CHUNK_LANES,
        "resolved_lanes": int(resolved.sum()),
        "quick": QUICK,
        "pipeline_sec": round(elapsed, 4),
        "legacy_sec": round(legacy_elapsed, 4),
        "legacy_whole_batch_sec": round(min(whole_timings), 4),
        "lane_rounds_per_sec": round(lane_rounds / elapsed),
        "speedup_vs_reference": round(speedup, 2),
        "speedup_vs_whole_batch_reference": round(
            min(whole_timings) / elapsed, 2
        ),
    }
    for key, value in payload.items():
        benchmark.extra_info[key] = value
    record_sweep_bench("stabilization", payload)
    assert speedup >= MIN_SPEEDUP, (
        f"array-native limit-cycle pipeline only {speedup:.1f}x the "
        f"Python-bookkeeping reference ({elapsed:.3f}s vs "
        f"{legacy_elapsed:.3f}s)"
    )
