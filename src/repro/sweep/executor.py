"""Parallel sweep executor over the batched result store.

``run_sweep`` turns a :class:`repro.sweep.spec.ScenarioSpec` into
results in three stages:

1. **cache probe** — the whole deduplicated cell list is probed in one
   :meth:`repro.sweep.store.SqliteStore.lookup_many` call; hits are
   served without any simulation, which is what makes repeated and
   resumed sweeps free;
2. **batch planning** — cache misses are grouped by model, ring size,
   round budget and metric set, then chunked.  A rotor group is
   *routed, then merged*: its single-agent cover cells form one chunk
   that :func:`repro.sweep.batch_ring.single_agent_covers` resolves in
   closed form, stepping no round (:func:`_closed_form_covers`); the
   rest is sliced into :data:`CHUNK_LANES`-cell blocks, each block
   picks its kernel on its own
   (:func:`_prefer_sparse_covers`: a sparse cover-only block,
   ``Σ k < n``, runs :func:`repro.sweep.batch_ring.sparse_ring_covers`,
   which steps each lane on its own in straight-run jumps), and each
   run of adjacent dense blocks merges into one
   :class:`repro.sweep.batch_ring.BatchRingKernel` invocation of up to
   :data:`CHUNK_ELEMENTS` lane-nodes, stepping all of its lanes with
   shared vectorized rounds (a dense round at 64 lanes is mostly numpy
   dispatch; :func:`_slice_chunks` gives the costs).  Routing stays
   per block because a dense chunk steps every lane until its slowest
   covers, while the sparse stepper finishes each lane on its own.
   A walk chunk is one
   :class:`repro.sweep.batch_walk.BatchRingWalks` invocation whose
   lanes are the cells' seeded repetitions (walk
   chunks are additionally capped by total walker count, since the
   block buffers scale with ``Σ k·repetitions``), and a general-graph
   chunk one :class:`repro.sweep.batch_general.BatchGeneralKernel`
   invocation (lanes of *different* graphs share rounds);
3. **execution** — chunks run in-process (``jobs <= 1``) or across a
   ``multiprocessing`` pool under a supervising dispatcher
   (:class:`_Supervisor`), with per-chunk progress reporting; each
   chunk's results are written back in one batched
   :meth:`~repro.sweep.store.SqliteStore.put_many` call.  A chunk is
   the same payload at every ``jobs``: ``{"cells": [...]}``, the
   planner's own cell objects, passed by reference in-process and
   pickled as-is to workers (each general graph once per chunk, by
   pickle's memo); whichever process runs it builds its own lane
   arrays.

The execution stage is **fault-tolerant**: chunks are tracked
individually with per-chunk deadlines (``chunk_timeout``), failed
attempts are retried with exponential backoff (``max_retries``), a
chunk that keeps failing is bisected until the poison cell is
isolated and quarantined, worker crashes and hung workers trigger a
pool restart, and a pool that cannot be rebuilt degrades to
in-process serial execution of the remaining chunks.  A plan always
finishes: ``run_cells`` returns a structured :class:`FailureReport`
(quarantined cell hashes plus exception summaries) instead of
propagating the first worker exception.  Probe-time ``corrupt``
statuses self-heal — the bad rows are quarantined through
:meth:`~repro.sweep.store.SqliteStore.quarantine_many` and recomputed.
All of it is reproducible: :mod:`repro.sweep.faults` injects seeded,
deterministic faults (worker crashes, poison cells, delays, store-row
corruption) for tests, benchmarks and the CI chaos job, and none of
the robustness knobs joins any cache identity.

The store (:mod:`repro.sweep.store`) is one SQLite file per cache
directory (``cache_dir`` is the directory, or ``sqlite://<dir>``):
batched probes and transactional writes keep warm sweeps out of
syscall territory, and only the dispatching process ever writes it.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from repro import obs
from repro.sweep.batch_general import batch_general_covers
from repro.sweep.batch_ring import (
    BatchRingKernel,
    batch_limit_cycles,
    batch_return_gaps,
    single_agent_covers,
    sparse_ring_covers,
)
from repro.sweep.batch_walk import BatchRingWalks, walk_lanes_from_cells
from repro.sweep.faults import (
    FaultPlan,
    apply_chunk_faults,
    corrupt_rows_in_store,
)
from repro.sweep.spec import ScenarioSpec, SweepConfig, rotor_lanes
from repro.sweep.store import SqliteStore, open_store
from repro.util.stats import normal_ci, summarize
from repro.util.tables import Table
from repro.util.timing import Stopwatch

#: Lanes per routing block: the planner slices each rotor group into
#: blocks of this many cells and picks each block's kernel with
#: :func:`_prefer_sparse_covers`; walk chunks hold at most this many
#: cells.
CHUNK_LANES = 64

#: Lane-node cap (lanes × n) of a dense ring chunk: adjacent dense
#: blocks of one group merge into one :class:`BatchRingKernel`
#: invocation up to this size, which spreads each round's numpy
#: dispatch over up to 2,048 lanes at n = 64 (0 merges nothing).
CHUNK_ELEMENTS = 1 << 17

#: Walker cap per walk chunk: the walk kernel's block buffers are
#: ``(block_size, Σ k·repetitions)`` int64 matrices, so chunks are
#: additionally split once their total walker count crosses this
#: (4096 walkers ≈ 32 MiB per 1024-round block buffer).
WALK_CHUNK_WALKERS = 4096

#: Redispatches a failing chunk earns before bisection/quarantine.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential retry backoff, seconds: attempt ``a`` waits
#: ``RETRY_BACKOFF * 2**(a - 1)`` before redispatching.
RETRY_BACKOFF = 0.1


def _closed_form_covers(configs: Sequence) -> bool:
    """Whether a rotor chunk resolves its covers without stepping.

    A cover-only chunk whose every cell holds one agent runs
    :func:`repro.sweep.batch_ring.single_agent_covers`, which reads
    each cover off the pointers in n - 2 lockstep array steps.  The
    planner asks this of every cell of a rotor group, and gathers the
    cells it holds for into one chunk (see :func:`_slice_chunks`);
    :func:`_compute_rotor_chunk` asks it again of the chunk it runs.
    """
    return tuple(configs[0].metrics) == ("cover",) and all(
        config.k == 1 for config in configs
    )


def _prefer_sparse_covers(n: int, configs: Sequence) -> bool:
    """Whether a rotor block runs on the sparse stepper.

    Only cover-only blocks can: the stepper measures cover alone.  A
    dense ring-kernel round sweeps the full ``(B, n)`` configuration
    matrix until the block's slowest lane covers, while
    :func:`repro.sweep.batch_ring.sparse_ring_covers` steps each lane
    on its own, O(k) a round or one straight-run jump.  The rule,
    ``Σ k_i < n``, rests on ring cover chunks at n in 256..1024, where
    the CSR kernel took 0.31x the dense kernel's time below it and
    1.6–2.3x above on chunks of equal k; the stepper is at least as
    fast as the CSR kernel at every k.  Single-agent cells never
    reach either kernel (:func:`_closed_form_covers`).  The planner
    asks this of every :data:`CHUNK_LANES` block before it merges
    dense ones (see :func:`_slice_chunks`), and
    :func:`_compute_rotor_chunk` asks it again of the chunk it runs.
    Both kernels are pinned bit-identical by the equivalence suites:
    this chooses scheduling, never semantics.
    """
    return tuple(configs[0].metrics) == ("cover",) and (
        sum(config.k for config in configs) < n
    )


ProgressFn = Callable[[int, int], None]


@dataclass
class FailureReport:
    """Structured failure outcome of one ``run_cells`` plan.

    A fault-tolerant plan always runs to completion; this report says
    what it took.  ``quarantined`` maps each abandoned cell's
    ``config_hash`` to a one-line exception summary — those hashes are
    the only ones missing from ``metrics_by_hash``.  The counters
    mirror the ``executor.*`` telemetry: failure-driven redispatches
    (``retries``), chunk deadlines exceeded (``timeouts``), chunks
    that exhausted their retries and went to bisection
    (``chunk_failures``), pool teardown/rebuilds after worker death or
    a hung chunk (``pool_restarts``), and degradations to in-process
    serial execution (``serial_fallbacks``).
    """

    quarantined: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    chunk_failures: int = 0
    pool_restarts: int = 0
    serial_fallbacks: int = 0

    @property
    def failed(self) -> int:
        """Number of quarantined cells (the ``failed=Z`` accounting)."""
        return len(self.quarantined)

    @property
    def clean(self) -> bool:
        """Whether the plan ran without any failure handling at all."""
        return not (
            self.quarantined
            or self.retries
            or self.timeouts
            or self.chunk_failures
            or self.pool_restarts
            or self.serial_fallbacks
        )

    def counters(self) -> dict[str, int]:
        """The nonzero ``executor.*`` counter increments to emit."""
        values = {
            "executor.retries": self.retries,
            "executor.timeouts": self.timeouts,
            "executor.chunk_failures": self.chunk_failures,
            "executor.quarantined_cells": self.failed,
            "executor.pool_restarts": self.pool_restarts,
            "executor.serial_fallbacks": self.serial_fallbacks,
        }
        return {name: value for name, value in values.items() if value}

    def summary_lines(self) -> list[str]:
        """One human-readable line per quarantined cell, hash-sorted."""
        return [
            f"quarantined {config_hash[:12]}: {summary}"
            for config_hash, summary in sorted(self.quarantined.items())
        ]


@dataclass(frozen=True)
class ConfigResult:
    """Metrics of one sweep cell, with provenance.

    A quarantined cell still yields a result row — ``failed=True``
    with empty metrics — so sweep tables keep one row per requested
    configuration no matter what the execution layer survived.
    """

    config: SweepConfig
    metrics: dict
    cached: bool
    failed: bool = False


@dataclass
class SweepResult:
    """All cell results of one sweep run, in spec expansion order."""

    spec: ScenarioSpec
    results: list[ConfigResult]
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0
    failed: int = 0
    failure_report: FailureReport | None = None

    _METRIC_COLUMNS = (
        ("cover", ".1f"),
        ("cover_ci_low", ".1f"),
        ("cover_ci_high", ".1f"),
        ("cover_reps", "d"),
        ("preperiod", "d"),
        ("period", "d"),
        ("worst_gap", ".0f"),
        ("best_gap", ".0f"),
    )

    def table(self) -> Table:
        """Render every cell as one row (generic sweep layout).

        Stochastic (walk) cells report their repetition mean in the
        ``cover`` column plus the CI bounds and repetition count; the
        CI columns only appear when some cell recorded them.
        """
        present = [
            (name, fmt)
            for name, fmt in self._METRIC_COLUMNS
            if any(name in r.metrics for r in self.results)
        ]
        table = Table(
            columns=["model", "n", "k", "placement", "pointers", "seed"]
            + [name for name, _ in present]
            + ["cached"],
            caption=f"sweep '{self.spec.name}': "
            f"{len(self.results)} configurations",
            formats=[None, "d", "d", None, None, "d"]
            + [fmt for _, fmt in present]
            + [None],
        )
        for result in self.results:
            config = result.config
            table.add_row(
                config.model,
                config.n,
                config.k,
                config.placement,
                config.pointer,
                config.seed,
                *[result.metrics.get(name) for name, _ in present],
                "failed" if result.failed else
                ("yes" if result.cached else "no"),
            )
        return table


def compute_chunk(payload: dict) -> list[tuple[str, dict]]:
    """Run one chunk of same-model, same-``n`` cells through a kernel.

    ``payload["cells"]`` holds the chunk's cells, which the planner's
    group key makes agree on model, ring size, round budget and metric
    set (general cells agree on model only), so the computers read
    those from ``cells[0]``.  Returns ``(config_hash, metrics)`` pairs
    in chunk order.

    When the payload carries a ``trace`` stanza (added by
    :func:`run_cells` under an active :func:`repro.obs.trace_session`),
    the chunk runs under a fresh worker telemetry context whose spans
    and kernel counters land in this process's shard file.

    A ``faults`` stanza (attached only when a
    :class:`repro.sweep.faults.FaultPlan` is active) fires its injected
    failures here, before any telemetry or simulation work — exactly
    where a real crash/hang/poison cell would strike.
    """
    stanza = payload.get("faults")
    if stanza is not None:
        apply_chunk_faults(
            stanza, [cell.config_hash for cell in payload["cells"]]
        )
    trace = payload.get("trace")
    if trace is not None:
        return obs.traced_chunk(trace, _dispatch_chunk, payload)
    return _dispatch_chunk(payload)


def _dispatch_chunk(payload: dict) -> list[tuple[str, dict]]:
    """Model dispatch of :func:`compute_chunk` (sans telemetry)."""
    cells = payload["cells"]
    model = cells[0].model
    if model == "walk":
        if "gaps" in cells[0].metrics:
            return _compute_gaps_chunk(cells)
        return _compute_walk_chunk(cells)
    if model == "rotor-general":
        return _compute_general_chunk(cells)
    return _compute_rotor_chunk(cells)


def _compute_rotor_chunk(configs: list) -> list[tuple[str, dict]]:
    """Rotor cells: one deterministic lane each, on one of three kernels.

    Every route reads the chunk's lanes from one
    :func:`repro.sweep.spec.rotor_lanes` pass.  Single-agent cover
    chunks resolve in closed form (:func:`_closed_form_covers`), other
    sparse cover-only chunks run on the straight-run stepper
    (:func:`_prefer_sparse_covers`), and the rest on the dense ring
    kernel and the limit-cycle pipeline — identical results on every
    route.  Each kernel call runs under a ``kernel/<prefix>`` span,
    ``<prefix>`` the kernel's counter prefix, so ``repro stats`` rates
    each kernel against its own time.
    """
    n = configs[0].n
    max_rounds = configs[0].max_rounds
    metrics: Sequence[str] = configs[0].metrics
    pointers, counts = rotor_lanes(n, configs)
    out: list[dict] = [{} for _ in configs]
    if "cover" in metrics:
        if _closed_form_covers(configs):
            with obs.span("kernel/single"):
                covers = single_agent_covers(
                    n, pointers, counts, max_rounds
                )
        elif _prefer_sparse_covers(n, configs):
            with obs.span("kernel/sparse"):
                covers = sparse_ring_covers(
                    n, pointers, counts, max_rounds
                )
        else:
            with obs.span("kernel/ring"):
                kernel = BatchRingKernel(n, pointers, counts)
                covers = kernel.run_until_covered(max_rounds, strict=False)
        for b, cover in enumerate(covers):
            out[b]["cover"] = int(cover) if cover >= 0 else None
    if "stabilization" in metrics or "return" in metrics:
        with obs.span("kernel/limit"):
            cycles = batch_limit_cycles(
                n, pointers, counts, max_rounds, strict=False
            )
        resolved = cycles.periods > 0
        if "stabilization" in metrics:
            for b in range(len(configs)):
                confirmed = bool(resolved[b])
                out[b]["preperiod"] = (
                    int(cycles.preperiods[b]) if confirmed else None
                )
                out[b]["period"] = (
                    int(cycles.periods[b]) if confirmed else None
                )
        if "return" in metrics:
            for b in range(len(configs)):
                out[b]["worst_gap"] = None
                out[b]["best_gap"] = None
            resolved_lanes = np.flatnonzero(resolved)
            if resolved_lanes.size:
                with obs.span("kernel/gaps"):
                    worst, best = batch_return_gaps(
                        n, cycles.take(resolved_lanes)
                    )
                for i, b in enumerate(resolved_lanes):
                    out[b]["worst_gap"] = float(worst[i])
                    out[b]["best_gap"] = float(best[i])
    return [
        (config.config_hash, metrics_out)
        for config, metrics_out in zip(configs, out)
    ]


def _compute_walk_chunk(configs: list) -> list[tuple[str, dict]]:
    """Walk cells: fan repetitions into lanes, aggregate mean/CI back.

    Each cell's repetitions run on the derived seeds of
    :meth:`repro.sweep.spec.SweepConfig.rep_seeds`, seed-for-seed
    identical to standalone :class:`repro.randomwalk.ring_walk.
    RingRandomWalks` runs.  A cell whose budget truncates any
    repetition reports ``cover=None`` (the mean of a censored sample
    would be biased); the repetition count and truncation count are
    always recorded.
    """
    n = configs[0].n
    max_rounds = configs[0].max_rounds
    lanes, slices = walk_lanes_from_cells(
        [(config.build_agents(), config.rep_seeds()) for config in configs]
    )
    with obs.span("kernel/walk"):
        covers = BatchRingWalks(n, lanes).run_until_covered(
            max_rounds, strict=False
        )
    out: list[tuple[str, dict]] = []
    for config, (start, stop) in zip(configs, slices):
        samples = covers[start:stop]
        truncated = int(np.count_nonzero(samples < 0))
        metrics: dict = {
            "cover_reps": int(stop - start),
            "cover_truncated": truncated,
        }
        if getattr(config, "record_samples", False):
            # Explicit experiment cells keep the raw per-repetition
            # samples so callers can rebuild the exact serial
            # CoverEstimate (mean, std, CI and all).
            metrics["cover_samples"] = [int(value) for value in samples]
        if truncated:
            metrics.update(
                cover=None, cover_std=None,
                cover_ci_low=None, cover_ci_high=None,
            )
        else:
            values = [float(value) for value in samples]
            summary = summarize(values)
            # normal_ci degenerates to (mean, mean) for singletons
            low, high = normal_ci(values)
            metrics.update(
                cover=summary.mean,
                cover_std=summary.std,
                cover_ci_low=low,
                cover_ci_high=high,
            )
        out.append((config.config_hash, metrics))
    return out


def _compute_gaps_chunk(cells: list) -> list[tuple[str, dict]]:
    """Walk gap-statistics cells: one seeded measurement per cell.

    Gap cells have no lane-sharing structure (each is one k-walker
    stream observed at one node), so the chunk simply evaluates the
    vectorized :func:`repro.randomwalk.visits.ring_walk_gap_statistics`
    per cell; chunking still buys multiprocessing and caching.
    """
    from repro.randomwalk.visits import ring_walk_gap_statistics

    out: list[tuple[str, dict]] = []
    for cell in cells:
        stats = ring_walk_gap_statistics(
            cell.n,
            cell.k,
            node=cell.node,
            observation_rounds=cell.observation_rounds,
            burn_in=cell.burn_in,
            seed=cell.seed,
        )
        out.append((cell.config_hash, stats.to_metrics()))
    return out


def _compute_general_chunk(cells: list) -> list[tuple[str, dict]]:
    """General-graph rotor cells: batched CSR kernel per chunk.

    Each cell carries its graph's CSR (cells over one graph share one
    object, so a pickled chunk holds each graph once); every cell
    becomes one lane of a single
    :class:`repro.sweep.batch_general.BatchGeneralKernel` invocation
    with its own size and budget, so all seeds, k-values — and
    families — advance with shared vectorized rounds, whatever the
    chunk's size.  A cell that does not cover within its budget
    records ``cover=None``, as on the ring kernels.
    """
    lanes = [
        (cell.csr(), cell.ports, cell.agents, cell.max_rounds)
        for cell in cells
    ]
    with obs.span("kernel/general"):
        covers = batch_general_covers(lanes, strict=False)
    return [
        (cell.config_hash, {"cover": int(c) if c >= 0 else None})
        for cell, c in zip(cells, covers)
    ]


def _plan_chunks(misses: list, jobs: int = 1) -> list[dict]:
    """Group misses by (model, n, budget, metrics); slice into payloads.

    Each payload is ``{"cells": chunk}``, the planner's own cell
    objects; :func:`run_cells` adds the ``trace`` and ``faults``
    stanzas when they are active.  The computers read the group key
    from ``cells[0]``.  The metric tuple is part of it: a chunk holds
    exactly one metric set, so heterogeneous miss lists can never
    compute (and cache) the wrong metrics for some of their cells.
    Walk chunks hold at most :data:`CHUNK_LANES` cells and are
    additionally split by total walker count (``Σ k·repetitions``, at
    most :data:`WALK_CHUNK_WALKERS`), which bounds the walk kernel's
    block-buffer memory regardless of how many repetitions a cell fans
    out into.  Ring groups are routed, then merged (see
    :func:`_slice_chunks`): the single-agent cover cells share one
    closed-form chunk, every :data:`CHUNK_LANES` block of the rest
    that :func:`_prefer_sparse_covers` sends to the sparse stepper is a
    chunk of its own, and each run of adjacent dense blocks shares
    chunks of at most :data:`CHUNK_ELEMENTS` lane-nodes.

    General-graph cells group together regardless of size or budget —
    the CSR kernel steps heterogeneous lanes natively, and the more
    lanes share one invocation, the better the long single-agent tails
    amortize — ordered by graph digest so every chunk's cells cluster
    by graph, and a chunk ships few distinct graphs.  With
    ``jobs <= 1`` the whole group is one chunk (splitting buys nothing
    in-process); parallel runs split it into up to ``2·jobs`` chunks
    balanced by occupied-pair load estimates
    (``min(k, n) · max_rounds`` per cell), not by lane count.

    Chunking decides how cells share kernel invocations, never what a
    cell computes, and no rotor or walk plan depends on ``jobs``.
    """
    groups: dict[tuple[str, int, int, tuple[str, ...]], list] = {}
    for config in misses:
        if config.model == "rotor-general":
            # One group: lane budgets/sizes are per-cell in the kernel.
            key = (config.model, 0, 0, tuple(config.metrics))
        else:
            key = (
                config.model, config.n, config.max_rounds,
                tuple(config.metrics),
            )
        groups.setdefault(key, []).append(config)
    payloads = []
    for (model, _, _, _), members in sorted(groups.items()):
        if model == "rotor-general":
            # Stable, so same-graph cells keep their miss order.
            members = sorted(members, key=lambda cell: cell.graph_digest)
        for chunk in _slice_chunks(model, members, jobs):
            payloads.append({"cells": chunk})
    return payloads


def _slice_chunks(model: str, members: list, jobs: int) -> list[list]:
    """Split one group's members into kernel-sized chunks.

    A ring group is routed, then merged.  Its single-agent cover cells
    (:func:`_closed_form_covers`) come first, all in one chunk, since
    their closed form steps no round.  The rest, in order, is sliced
    into :data:`CHUNK_LANES` blocks and :func:`_prefer_sparse_covers`
    routes each block, so the blocks that run the sparse stepper are
    the same whatever the merge does.  Each run of adjacent dense blocks
    then merges, whole blocks at a time, into chunks of at most
    :data:`CHUNK_ELEMENTS` lane-nodes (lanes × n); a block larger
    than that stays one chunk, and ``CHUNK_ELEMENTS = 0`` merges
    nothing.  A dense round costs mostly numpy dispatch at 64 lanes
    (21–25 µs against 98–113 µs at 1,024 lanes, n = 128), so wide
    chunks amortize it.  Routing a merged chunk as a whole instead
    would send, say, 128 cells of k = 8 at n = 1024 (``Σ k = n``) to
    the dense kernel, which steps every lane until the slowest covers
    (about 100 µs a round, for up to ~100k rounds), where the sparse
    stepper finishes each lane on its own.
    """
    if model == "rotor-general":
        # Lane sharing is the whole point of the general kernel: only
        # split when worker processes can actually consume the chunks.
        # The split is topology-aware: a lane's per-round vector cost
        # scales with its occupied pairs (bounded by min(k, n)) for up
        # to max_rounds rounds, so chunks close on that load estimate
        # rather than on lane count — one huge-graph cell no longer
        # weighs the same as a dozen tiny ones.  Members arrive
        # digest-sorted, so contiguous chunks keep same-graph cells
        # (and their shared CSR objects) together.
        if jobs <= 1:
            return [members]
        weights = [
            min(cell.k, cell.n) * max(1, cell.max_rounds)
            for cell in members
        ]
        target = max(1, sum(weights) // (2 * jobs))
        chunks = []
        current: list = []
        load = 0
        for cell, weight in zip(members, weights):
            current.append(cell)
            load += weight
            if load >= target and len(chunks) < 2 * jobs - 1:
                chunks.append(current)
                current, load = [], 0
        if current:
            chunks.append(current)
        return chunks
    if model != "walk":
        n = members[0].n
        single: list = []
        stepped: list = []
        for cell in members:
            (single if _closed_form_covers((cell,)) else stepped).append(cell)
        chunks = [single] if single else []
        merging: list | None = None  # the open dense chunk, if any
        for start in range(0, len(stepped), CHUNK_LANES):
            block = stepped[start:start + CHUNK_LANES]
            if _prefer_sparse_covers(n, block):
                merging = None
                chunks.append(block)
            elif (
                merging is not None
                and (len(merging) + len(block)) * n <= CHUNK_ELEMENTS
            ):
                merging.extend(block)
            else:
                merging = block
                chunks.append(block)
        return chunks
    chunks: list[list] = []
    current: list = []
    walkers = 0
    for config in members:
        weight = config.k * config.repetitions
        if current and (
            len(current) >= CHUNK_LANES
            or walkers + weight > WALK_CHUNK_WALKERS
        ):
            chunks.append(current)
            current, walkers = [], 0
        current.append(config)
        walkers += weight
    if current:
        chunks.append(current)
    return chunks


def _create_pool(jobs: int):
    """Worker-pool factory, a seam so tests can break pool creation."""
    return multiprocessing.Pool(processes=jobs)


class _ChunkTask:
    """One chunk payload's lifecycle under the supervisor."""

    __slots__ = ("payload", "tries_left", "attempt", "deadline",
                 "handle", "retry_at")

    def __init__(self, payload: dict, tries_left: int) -> None:
        self.payload = payload
        #: Failure-driven redispatches still available.
        self.tries_left = tries_left
        #: Total redispatch count (failures *and* pool restarts): keys
        #: the backoff exponent and the fault stanza's attempt field.
        self.attempt = 0
        #: Monotonic deadline while in flight (None = no timeout).
        self.deadline: float | None = None
        #: The pool ``AsyncResult`` while in flight.
        self.handle = None
        #: Monotonic earliest redispatch time (retry backoff).
        self.retry_at = 0.0


class _Supervisor:
    """Supervising dispatcher: every chunk completes or quarantines.

    Replaces the historical bare ``Pool.imap_unordered`` loop.  Chunks
    are tracked individually via ``apply_async`` handles so the
    supervisor can enforce per-chunk deadlines, notice worker death
    (the pool's worker pid set changing, or a worker no longer alive),
    and keep scheduling around failures:

    - a failed attempt (worker exception or deadline) is redispatched
      up to ``max_retries`` times with exponential backoff;
    - a chunk that exhausts its retries is **bisected** — both halves
      re-enter the queue with zero retries — until the failure is
      isolated to a single cell, which is quarantined with its
      exception summary instead of failing the sweep;
    - a timeout or dead worker tears the pool down and rebuilds it
      (reclaiming the hung/lost worker slots), re-queueing whatever
      was in flight; after ``MAX_POOL_RESTARTS`` rebuilds — or when
      the pool cannot be (re)built or dispatched to at all — the
      remaining chunks degrade to in-process serial execution;
    - with ``jobs <= 1`` chunks simply run in-process under the same
      retry/bisect/quarantine logic (no deadlines: there is no worker
      to preempt, and ``KeyboardInterrupt`` must keep propagating for
      interrupt safety).

    The supervisor owns scheduling only; committing results stays with
    the caller through the ``commit``/``quarantine`` callbacks, so
    cache writes and progress accounting are unchanged from the
    historical loop.
    """

    #: Idle sleep between polls of in-flight handles, seconds.
    POLL_INTERVAL = 0.02
    #: Pool rebuilds allowed before degrading to serial execution.
    MAX_POOL_RESTARTS = 5

    def __init__(
        self,
        jobs: int,
        commit: Callable[[list[tuple[str, dict]]], None],
        quarantine: Callable[[str, str], None],
        report: FailureReport,
        max_retries: int,
        chunk_timeout: float | None,
        session=None,
    ) -> None:
        self.jobs = jobs
        self.commit = commit
        self.quarantine = quarantine
        self.report = report
        self.max_retries = max_retries
        self.chunk_timeout = chunk_timeout
        self.session = session
        self.queue: deque[_ChunkTask] = deque()
        self.in_flight: list[_ChunkTask] = []
        self.pool = None
        self._pids: tuple[int, ...] | None = None

    # -- public ---------------------------------------------------------
    def run(self, payloads: list[dict]) -> None:
        for payload in payloads:
            self.queue.append(_ChunkTask(payload, self.max_retries))
        if self.jobs > 1:
            self._run_pool()
        else:
            self._run_serial()

    # -- serial path ----------------------------------------------------
    def _run_serial(self) -> None:
        while self.queue:
            task = self.queue.popleft()
            delay = task.retry_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                pairs = compute_chunk(task.payload)
            except Exception as exc:  # KeyboardInterrupt propagates
                self._on_failure(task, exc)
                continue
            self.commit(pairs)

    # -- pool path ------------------------------------------------------
    def _run_pool(self) -> None:
        self.pool = self._spawn_pool()
        try:
            while self.queue or self.in_flight:
                if self.pool is None:
                    self._degrade_to_serial()
                    return
                self._dispatch_ready()
                progressed, timed_out = self._poll_in_flight()
                if self.pool is not None and self._workers_changed():
                    self._restart_pool()
                elif timed_out:
                    # The hung worker still occupies its slot; only a
                    # pool rebuild reclaims it.
                    self._restart_pool()
                elif not progressed and (self.queue or self.in_flight):
                    time.sleep(self.POLL_INTERVAL)
        finally:
            pool, self.pool = self.pool, None
            if pool is not None:
                pool.terminate()
                pool.join()

    def _spawn_pool(self):
        try:
            pool = _create_pool(self.jobs)
        except Exception:
            return None
        self._pids = self._observed_pids(pool)
        return pool

    def _observed_pids(self, pool) -> tuple[int, ...] | None:
        """The live worker pid set, or None when unobservable.

        ``Pool._pool`` is private API, so every access is defensive:
        an unobservable pool simply loses crash detection (timeouts
        still fire), it never breaks dispatch.
        """
        procs = getattr(pool, "_pool", None)
        if procs is None:
            return None
        try:
            return tuple(sorted(
                proc.pid for proc in list(procs) if proc.is_alive()
            ))
        except Exception:
            return None

    def _workers_changed(self) -> bool:
        if self._pids is None:
            return False
        observed = self._observed_pids(self.pool)
        return observed is not None and observed != self._pids

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        for _ in range(len(self.queue)):
            task = self.queue.popleft()
            if task.retry_at > now:
                self.queue.append(task)  # rotate; redispatch later
                continue
            try:
                task.handle = self.pool.apply_async(
                    compute_chunk, (task.payload,)
                )
            except Exception:
                # The pool is broken beyond dispatching: drop it and
                # let the main loop degrade to serial.
                self.queue.appendleft(task)
                self._teardown_pool()
                return
            if self.chunk_timeout is not None:
                task.deadline = time.monotonic() + self.chunk_timeout
            self.in_flight.append(task)

    def _poll_in_flight(self) -> tuple[bool, bool]:
        progressed = False
        timed_out = False
        still: list[_ChunkTask] = []
        for task in self.in_flight:
            ready = False
            try:
                ready = task.handle.ready()
            except Exception:
                ready = False
            if ready:
                progressed = True
                try:
                    pairs = task.handle.get()
                except Exception as exc:
                    self._on_failure(task, exc)
                else:
                    task.handle = None
                    self.commit(pairs)
                continue
            if task.deadline is not None and time.monotonic() > task.deadline:
                timed_out = True
                self.report.timeouts += 1
                self._on_failure(task, TimeoutError(
                    f"chunk exceeded its {self.chunk_timeout:g}s deadline"
                ))
                continue
            still.append(task)
        self.in_flight = still
        return progressed, timed_out

    def _restart_pool(self) -> None:
        """Tear the pool down, re-queue in-flight work, rebuild.

        Restart re-queues are not retries: a chunk that merely shared
        the pool with a crashed/hung neighbour keeps its budget, and
        its attempt counter still advances so first-attempt-only
        injected faults cannot refire forever.
        """
        self.report.pool_restarts += 1
        self._teardown_pool()
        while self.in_flight:
            task = self.in_flight.pop()
            task.handle = None
            task.deadline = None
            task.attempt += 1
            self._sync_attempt(task)
            task.retry_at = 0.0
            self.queue.appendleft(task)
        if self.report.pool_restarts <= self.MAX_POOL_RESTARTS:
            self.pool = self._spawn_pool()

    def _teardown_pool(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

    def _degrade_to_serial(self) -> None:
        self.report.serial_fallbacks += 1
        while self.in_flight:
            task = self.in_flight.pop()
            task.handle = None
            task.deadline = None
            self.queue.appendleft(task)
        self._run_serial()

    # -- failure handling (both paths) ----------------------------------
    def _sync_attempt(self, task: _ChunkTask) -> None:
        stanza = task.payload.get("faults")
        if stanza is not None:
            stanza["attempt"] = task.attempt

    def _on_failure(self, task: _ChunkTask, exc: BaseException) -> None:
        task.handle = None
        task.deadline = None
        if task.tries_left > 0:
            task.tries_left -= 1
            task.attempt += 1
            self._sync_attempt(task)
            self.report.retries += 1
            backoff = RETRY_BACKOFF * (2 ** (task.attempt - 1))
            task.retry_at = time.monotonic() + backoff
            self.queue.append(task)
            return
        self._bisect_or_quarantine(task, exc)

    def _bisect_or_quarantine(self, task: _ChunkTask, exc: BaseException):
        summary = f"{type(exc).__name__}: {exc}"
        cells = task.payload["cells"]
        if len(cells) <= 1:
            self.quarantine(cells[0].config_hash, summary)
            return
        self.report.chunk_failures += 1
        mid = len(cells) // 2
        # Halves go to the queue front so isolation finishes promptly;
        # appendleft order puts the low half first.
        for lo, hi in ((mid, len(cells)), (0, mid)):
            sub = self._subset_payload(task.payload, lo, hi)
            self.queue.appendleft(_ChunkTask(sub, tries_left=0))

    def _subset_payload(self, payload: dict, lo: int, hi: int) -> dict:
        """A payload computing ``cells[lo:hi]`` of ``payload``.

        The fault stanza — if any — is re-keyed to ``chunk=None``:
        chunk-indexed faults never target bisection sub-chunks, so
        isolating a poison cell always converges.
        """
        sub = dict(payload)
        sub["cells"] = payload["cells"][lo:hi]
        stanza = payload.get("faults")
        if stanza is not None:
            sub["faults"] = dict(stanza, chunk=None, attempt=0)
        if self.session is not None:
            sub["trace"] = self.session.next_chunk_trace()
        else:
            sub.pop("trace", None)
        return sub


class StderrProgress:
    """Progress reporter with elapsed time, rate and ETA.

    On a TTY the status line rewrites in place (``\\r``) and ends with
    a newline at completion; on a non-TTY stream (CI logs, pipes) it
    emits plain newline-terminated lines at most every ``interval``
    seconds — plus the first and final updates — so logs stay clean.

    The rate counts configurations completed since the first call of a
    sweep, which excludes the initial cache-hit jump: the ETA reflects
    actual compute throughput, not cache reads.  The rate itself is
    measured over a sliding window of recent updates (at most
    ``RATE_WINDOW`` seconds) rather than the whole sweep: a chunk
    completes many cells in one burst after a long silent stretch, and
    a since-start rate would let that stall (or a fast cached prefix)
    distort the ETA for the rest of the run.  The window is clamped at
    those bursts — it always retains the sample immediately before a
    burst, so the burst is averaged over the stretch that produced it
    and never reads as instantaneous throughput.  An
    instance resets itself when ``total`` changes, ``done`` regresses,
    or a sweep completes, so one instance serves consecutive sweeps.
    """

    #: Sliding rate-window span, seconds.
    RATE_WINDOW = 30.0

    def __init__(
        self,
        stream: TextIO | None = None,
        interval: float = 5.0,
        tty: bool | None = None,
    ) -> None:
        self.stream = stream
        self.interval = interval
        self.tty = tty
        self._reset()

    def _reset(self) -> None:
        self._watch: Stopwatch | None = None
        self._total: int | None = None
        self._last_done = 0
        self._baseline = 0
        self._last_emit: float | None = None
        self._samples: list[tuple[float, int]] = []

    def _rate(self, elapsed: float, computed: int) -> float | None:
        """Completions/second over the clamped sliding window."""
        samples = self._samples
        samples.append((elapsed, computed))
        # Drop history beyond the window but always keep the sample
        # preceding the newest one: after an epoch-long stall the rate
        # spans exactly [previous update, burst], nothing older.
        while len(samples) > 2 and elapsed - samples[0][0] > self.RATE_WINDOW:
            samples.pop(0)
        start_elapsed, start_computed = samples[0]
        if computed > start_computed and elapsed > start_elapsed:
            return (computed - start_computed) / (elapsed - start_elapsed)
        return None

    def __call__(self, done: int, total: int) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        if (
            self._watch is None
            or total != self._total
            or done < self._last_done
        ):
            self._reset()
            self._watch = Stopwatch().start()
            self._total = total
            self._baseline = done
        self._last_done = done
        elapsed = self._watch.split()
        line = f"sweep: {done}/{total} configurations elapsed={elapsed:.1f}s"
        rate = self._rate(elapsed, done - self._baseline)
        if rate is not None:
            line += f" rate={rate:.1f}/s"
            if done < total:
                line += f" eta={(total - done) / rate:.0f}s"
        final = done >= total
        tty = (
            self.tty
            if self.tty is not None
            else bool(getattr(stream, "isatty", lambda: False)())
        )
        if tty:
            print(line, file=stream, end="\n" if final else "\r", flush=True)
        elif (
            final
            or self._last_emit is None
            or elapsed - self._last_emit >= self.interval
        ):
            print(line, file=stream, flush=True)
            self._last_emit = elapsed
        if final:
            self._reset()


def run_cells(
    cells: Sequence,
    jobs: int = 1,
    cache_dir: str | None = None,
    progress: ProgressFn | None = None,
    faults: FaultPlan | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    chunk_timeout: float | None = None,
) -> tuple[dict[str, dict], set[str], FailureReport]:
    """Execute a flat cell list: cache probe, then batched chunks.

    The workhorse under both :func:`run_sweep` (scenario grids) and the
    analysis backend (:mod:`repro.analysis.backend` explicit experiment
    cells).  ``cells`` may mix models and cell kinds — anything
    exposing the sweep-cell surface (``model``/``n``/``max_rounds``/
    ``metrics``/``k``/``repetitions``/``config_hash``, picklable for
    ``jobs > 1``) schedules; duplicate hashes are computed once.

    Returns ``(metrics_by_hash, cached_hashes, failure_report)``:
    every requested hash's metrics, the subset served from the cache,
    and the :class:`FailureReport` of whatever the supervisor had to
    survive — quarantined hashes are absent from ``metrics_by_hash``
    and callers decide whether that is fatal.

    ``cache_dir`` names the result store's directory (a plain path,
    or ``sqlite://<dir>`` for the same store; see
    :mod:`repro.sweep.store`); ``None`` disables caching.

    ``max_retries`` bounds the redispatches of a failing chunk before
    it is bisected, and ``chunk_timeout`` (seconds, ``None`` for no
    deadline) bounds each pool attempt; failed attempts back off from
    :data:`RETRY_BACKOFF`.  ``faults`` defaults to the
    :data:`repro.sweep.faults.FAULTS_ENV` hook, so chaos jobs can
    reach an unmodified CLI.  None of these — nor any injected fault —
    affects a computed result or any cache identity.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ValueError(
            f"chunk_timeout must be positive, got {chunk_timeout}"
        )
    if faults is None:
        faults = FaultPlan.from_env()
    if faults is not None and not faults.enabled:
        faults = None
    cache = open_store(cache_dir) if cache_dir else None
    try:
        return _run_cells_with_store(
            cells, cache, jobs, progress, faults, max_retries, chunk_timeout,
        )
    finally:
        if cache is not None:
            cache.close()


def _run_cells_with_store(
    cells: Sequence,
    cache: SqliteStore | None,
    jobs: int,
    progress: ProgressFn | None,
    faults: FaultPlan | None,
    max_retries: int,
    chunk_timeout: float | None,
) -> tuple[dict[str, dict], set[str], FailureReport]:
    """The body of :func:`run_cells`, over an already opened store."""
    session = obs.current_session()
    report = FailureReport()

    unique: list = []
    seen: set[str] = set()
    for cell in cells:
        if cell.config_hash not in seen:
            seen.add(cell.config_hash)
            unique.append(cell)
    total = len(unique)

    metrics_by_hash: dict[str, dict] = {}
    cached_hashes: set[str] = set()
    misses: list = []
    with obs.span("cache.get", cells=total, enabled=cache is not None):
        if cache is not None:
            # One batched probe for the whole plan: a table scan or a
            # few indexed queries.
            found, statuses = cache.lookup_many(unique)
            metrics_by_hash.update(found)
            cached_hashes.update(found)
            misses = [
                cell for cell in unique if cell.config_hash not in found
            ]
        else:
            misses = list(unique)
    if cache is not None:
        hits = sum(1 for s in statuses.values() if s == "hit")
        corrupt = sum(1 for s in statuses.values() if s == "corrupt")
        probe_misses = total - hits - corrupt
        obs.count_many({
            "cache.batch_lookups": 1,
            "cache.batch_size": total,
            "cache.hits": hits,
            "cache.misses": probe_misses,
            "cache.corrupt": corrupt,
        })
        if corrupt:
            # Self-healing: evict the corrupt rows now, so even a run
            # interrupted before recompute leaves no poison behind.
            quarantined_rows = cache.quarantine_many(sorted(
                config_hash
                for config_hash, status in statuses.items()
                if status == "corrupt"
            ))
            obs.count("cache.quarantined", quarantined_rows)
    done = total - len(misses)
    if progress:
        progress(done, total)

    by_hash = {cell.config_hash: cell for cell in misses}
    with obs.span("plan", misses=len(misses)):
        payloads = _plan_chunks(misses, jobs)
    if session is not None:
        for payload in payloads:
            payload["trace"] = session.next_chunk_trace()
    if faults is not None:
        for index, payload in enumerate(payloads):
            payload["faults"] = faults.stanza(
                chunk=index, parent_pid=os.getpid()
            )
    obs.count_many({
        "executor.chunks": len(payloads),
        "executor.cells": total,
        "executor.cells_computed": len(misses),
        "executor.cells_cached": len(cached_hashes),
    })

    def commit(pairs: list[tuple[str, dict]]) -> None:
        nonlocal done
        put_span = (
            obs.span("cache.put", cells=len(pairs))
            if cache is not None
            else nullcontext()
        )
        with put_span:
            for config_hash, metrics in pairs:
                metrics_by_hash[config_hash] = metrics
            if cache is not None:
                # One transaction per chunk.
                cache.put_many(
                    [(by_hash[h], metrics) for h, metrics in pairs]
                )
                obs.count_many({
                    "cache.puts": len(pairs),
                    "cache.batch_puts": 1,
                })
                if faults is not None:
                    victims = faults.corrupt_matches(
                        [config_hash for config_hash, _ in pairs]
                    )
                    if victims:
                        corrupt_rows_in_store(cache, victims)
            done += len(pairs)
        if progress:
            progress(done, total)

    def quarantine(config_hash: str, summary: str) -> None:
        nonlocal done
        report.quarantined[config_hash] = summary
        done += 1  # abandoned, but accounted: progress reaches total
        if progress:
            progress(done, total)

    if payloads:
        with obs.span("aggregate", chunks=len(payloads)):
            supervisor = _Supervisor(
                jobs=jobs,
                commit=commit,
                quarantine=quarantine,
                report=report,
                max_retries=max_retries,
                chunk_timeout=chunk_timeout,
                session=session,
            )
            supervisor.run(payloads)
    fault_counters = report.counters()
    if fault_counters:
        obs.count_many(fault_counters)
    if session is not None:
        # Crash-safe: every run_cells exit folds all shards written so
        # far into the manifest, so multi-experiment runs keep their
        # trace even if a later experiment dies.
        session.checkpoint()
    return metrics_by_hash, cached_hashes, report


def run_sweep(
    spec: ScenarioSpec,
    jobs: int = 1,
    cache_dir: str | None = None,
    progress: ProgressFn | None = None,
    faults: FaultPlan | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    chunk_timeout: float | None = None,
) -> SweepResult:
    """Execute a sweep: cache probe, then parallel batched simulation.

    ``jobs <= 1`` runs chunks in-process; otherwise a multiprocessing
    pool of ``jobs`` workers consumes them.  ``progress`` (if given) is
    called with ``(done, total)`` configuration counts as results
    arrive, cache hits included.  Chunking follows the executor
    constants :data:`CHUNK_LANES`, :data:`CHUNK_ELEMENTS` and
    :data:`WALK_CHUNK_WALKERS`: rotor groups send their single-agent
    cover cells to the closed form, route each ``CHUNK_LANES`` block
    of the rest to the dense kernel or the sparse stepper, then merge
    adjacent dense blocks up to ``CHUNK_ELEMENTS`` lane-nodes (see
    :func:`_slice_chunks`).

    The robustness knobs (``faults``/``max_retries``/
    ``chunk_timeout``) pass straight through to
    :func:`run_cells`.  A quarantined cell becomes a
    ``failed=True`` :class:`ConfigResult` with empty metrics; the
    sweep itself still succeeds, with the details in
    ``SweepResult.failure_report``.
    """
    started = time.perf_counter()
    configs = spec.configs()  # spec expansion guarantees unique cells
    metrics_by_hash, cached_hashes, failure_report = run_cells(
        configs,
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        faults=faults,
        max_retries=max_retries,
        chunk_timeout=chunk_timeout,
    )
    results = []
    for config in configs:
        metrics = metrics_by_hash.get(config.config_hash)
        if metrics is None:
            results.append(ConfigResult(
                config=config, metrics={}, cached=False, failed=True,
            ))
        else:
            results.append(ConfigResult(
                config=config,
                metrics=metrics,
                cached=config.config_hash in cached_hashes,
            ))
    hits = sum(result.cached for result in results)
    failed = sum(result.failed for result in results)
    return SweepResult(
        spec=spec,
        results=results,
        elapsed=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=len(results) - hits - failed,
        failed=failed,
        failure_report=failure_report,
    )


