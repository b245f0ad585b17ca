"""The analysis → sweep bridge: batched measurement plans.

The paper-reproduction experiments (``python -m repro run table1``,
``theorem1..6``, ``stabilization``, ``speedup_graphs``) are
embarrassingly parallel grids of small measurements — exactly the
workload the batched sweep kernels were built for — but historically
they measured one cell at a time through the serial harnesses of
:mod:`repro.analysis.cover_time` and friends.  This module routes them
through :mod:`repro.sweep.executor` instead, in three stages:

1. **plan** — an experiment declares every measurement it needs
   against a :class:`MeasurementPlan` (``rotor_cover``,
   ``rotor_return_exact``, ``walk_cover``, ``walk_gaps``,
   ``rotor_cover_general``); each call materializes the exact instance
   the serial code would have built (same placements, same pointer
   arrays, same derived seeds) into an explicit
   :mod:`repro.sweep.cells` cell, and returns a
   :class:`MeasurementHandle` future.  Duplicate requests collapse
   onto one cell.
2. **pack** — :meth:`MeasurementPlan.execute` hands the deduplicated
   cell list to :func:`repro.sweep.executor.run_cells`, which probes
   the on-disk result cache, groups misses by (model, n, budget,
   metrics), packs them into ``BatchRingKernel`` / ``BatchRingWalks``
   lanes, and fans chunks over worker processes.
3. **scatter** — every handle resolves its value from the returned
   metrics: rotor covers as exact ints, limit cycles as
   :class:`repro.analysis.return_time.RingReturnTime`, walk covers as
   the serial :class:`repro.randomwalk.cover.CoverEstimate` rebuilt
   from the per-repetition samples, gap statistics as
   :class:`repro.randomwalk.visits.GapStatistics`.

**Backends.**  Every experiment runs ``backend="batch"``, described
above; no CLI flag or runner selects another.  ``backend="reference"``
evaluates every cell with the original serial functions instead —
same requests, same values, no kernels, no cache.  It is the oracle
the equivalence tests and ``benchmarks/bench_experiments.py`` pin the
batch backend against (rotor results bit-identical, walk repetitions
seed-for-seed), and perfbench's ``grid_churn`` sample check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.randomwalk.cover import CoverEstimate
from repro.randomwalk.visits import GapStatistics
from repro.sweep.cells import (
    GeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
)
from repro.util.rng import derive_seed

BACKENDS = ("batch", "reference")

#: Serial-harness round budgets, mirrored exactly so both backends
#: simulate identical horizons (see repro.analysis.cover_time /
#: return_time and repro.randomwalk.cover usage).
def _rotor_cover_budget(n: int) -> int:
    return 8 * n * n + 64


def _rotor_return_budget(n: int) -> int:
    return 16 * n * n + 1024


def _walk_cover_budget(n: int) -> int:
    return 64 * n * n


@dataclass(frozen=True)
class BackendStats:
    """Execution accounting of one plan: what ran, what was cached."""

    backend: str
    computed: int
    cached: int
    elapsed: float
    failed: int = 0

    def summary_line(self) -> str:
        """The one-line accounting the CLI prints after each run."""
        line = (
            f"backend={self.backend} computed={self.computed} "
            f"cached={self.cached}"
        )
        if self.failed:
            line += f" failed={self.failed}"
        return line + f" elapsed={self.elapsed:.2f}s"


class MeasurementHandle:
    """Future for one scheduled measurement; resolves after execute()."""

    __slots__ = ("_plan", "_hash", "_wrap")

    def __init__(
        self,
        plan: "MeasurementPlan",
        config_hash: str,
        wrap: Callable[[dict], object],
    ) -> None:
        self._plan = plan
        self._hash = config_hash
        self._wrap = wrap

    @property
    def value(self):
        """The measured value; raises until the plan has executed."""
        metrics = self._plan._metrics_for(self._hash)
        return self._wrap(metrics)


class MeasurementPlan:
    """Collects measurement requests; executes them in one batch.

    Parameters
    ----------
    backend:
        ``"batch"`` (sweep kernels through the executor; what every
        experiment runs) or ``"reference"`` (the original serial
        functions, uncached; the test oracle).
    jobs:
        Worker processes for batch chunks (``<= 1``: in-process).
    cache_dir:
        On-disk result cache directory for the batch backend; ``None``
        disables caching.  The reference backend never caches.
    progress:
        Optional ``(done, total)`` callback for the batch backend.
    """

    def __init__(
        self,
        backend: str = "batch",
        jobs: int = 1,
        cache_dir: str | None = None,
        progress: Callable[[int, int], None] | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {BACKENDS}"
            )
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.backend = backend
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.progress = progress
        self._cells: dict[str, object] = {}
        self._results: dict[str, dict] | None = None
        self._stats: BackendStats | None = None

    # ------------------------------------------------------------------
    # request vocabulary (plan stage)
    # ------------------------------------------------------------------
    def _schedule(
        self, cell, wrap: Callable[[dict], object]
    ) -> MeasurementHandle:
        if self._results is not None:
            raise RuntimeError(
                "plan already executed; build a new MeasurementPlan"
            )
        self._cells.setdefault(cell.config_hash, cell)
        return MeasurementHandle(self, cell.config_hash, wrap)

    def rotor_cover(
        self,
        n: int,
        agents: Sequence[int],
        directions: Sequence[int],
        max_rounds: int | None = None,
    ) -> MeasurementHandle:
        """Deterministic rotor cover time (exact int), as
        :func:`repro.analysis.cover_time.ring_rotor_cover_time`."""
        cell = RotorCell(
            n=n,
            agents=tuple(int(a) for a in agents),
            directions=tuple(int(d) for d in directions),
            metrics=("cover",),
            max_rounds=(
                max_rounds if max_rounds is not None else _rotor_cover_budget(n)
            ),
        )
        return self._schedule(cell, _wrap_rotor_cover)

    def rotor_return_exact(
        self,
        n: int,
        agents: Sequence[int],
        directions: Sequence[int],
        max_rounds: int | None = None,
    ) -> MeasurementHandle:
        """Exact limit-cycle return time (a
        :class:`repro.analysis.return_time.RingReturnTime`), as
        :func:`repro.analysis.return_time.ring_rotor_return_time_exact`.
        """
        cell = RotorCell(
            n=n,
            agents=tuple(int(a) for a in agents),
            directions=tuple(int(d) for d in directions),
            metrics=("stabilization", "return"),
            max_rounds=(
                max_rounds
                if max_rounds is not None
                else _rotor_return_budget(n)
            ),
        )
        k = len(cell.agents)
        return self._schedule(
            cell, lambda metrics: _wrap_rotor_return(metrics, n, k)
        )

    def walk_cover(
        self,
        n: int,
        agents: Sequence[int],
        repetitions: int,
        base_seed: int = 0,
        max_rounds: int | None = None,
    ) -> MeasurementHandle:
        """Mean cover time of k seeded walks (a
        :class:`repro.randomwalk.cover.CoverEstimate`), seed-for-seed
        as :func:`repro.analysis.cover_time.ring_walk_cover_estimate`.
        """
        if repetitions < 1:
            raise ValueError(
                f"repetitions must be positive, got {repetitions}"
            )
        # Exactly the repetition seeds estimate_cover_time would derive.
        seeds = tuple(
            derive_seed(base_seed, "cover", rep) for rep in range(repetitions)
        )
        cell = WalkCoverCell(
            n=n,
            agents=tuple(int(a) for a in agents),
            seeds=seeds,
            max_rounds=(
                max_rounds if max_rounds is not None else _walk_cover_budget(n)
            ),
        )
        return self._schedule(cell, _wrap_walk_cover)

    def walk_gaps(
        self,
        n: int,
        k: int,
        node: int,
        observation_rounds: int,
        burn_in: int = 0,
        seed: int = 0,
    ) -> MeasurementHandle:
        """Visit-gap statistics (a
        :class:`repro.randomwalk.visits.GapStatistics`), as
        :func:`repro.randomwalk.visits.ring_walk_gap_statistics`."""
        cell = WalkGapsCell(
            n=n,
            k=k,
            node=node,
            observation_rounds=observation_rounds,
            burn_in=burn_in,
            seed=seed,
        )
        return self._schedule(cell, _wrap_walk_gaps)

    def rotor_cover_general(
        self,
        graph,
        agents: Sequence[int],
        ports: Sequence[int],
        max_rounds: int | None = None,
    ) -> MeasurementHandle:
        """Rotor cover time on a port-labeled graph (exact int), as
        :func:`repro.analysis.cover_time.rotor_cover_time_general`."""
        if max_rounds is None:
            # graph.diameter() caches, so wide grids pay the n-BFS
            # sweep once per graph rather than once per cell.
            max_rounds = 16 * graph.diameter() * graph.num_edges + 64
        cell = GeneralRotorCell.from_graph(
            graph, agents, ports, max_rounds
        )
        # Ports are checked here, once per request, not in the cell:
        # scenario grids build hundreds of general cells per pass.
        deg = cell.csr().deg
        port_array = np.asarray(cell.ports, dtype=np.int64)
        bad = np.flatnonzero((port_array < 0) | (port_array >= deg))
        if bad.size:
            v = int(bad[0])
            raise ValueError(
                f"pointer {cell.ports[v]} at node {v} out of range for "
                f"degree {int(deg[v])}"
            )
        return self._schedule(cell, _wrap_rotor_cover)

    # ------------------------------------------------------------------
    # execution (pack stage)
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Distinct scheduled measurements (after deduplication)."""
        return len(self._cells)

    @property
    def stats(self) -> BackendStats:
        if self._stats is None:
            raise RuntimeError("plan has not executed yet")
        return self._stats

    def execute(self) -> BackendStats:
        """Run every scheduled cell; afterwards handles resolve."""
        if self._results is not None:
            return self.stats
        started = time.perf_counter()
        cells = list(self._cells.values())
        with obs.span(
            "plan.execute", backend=self.backend, cells=len(cells)
        ):
            failed = 0
            if self.backend == "reference":
                self._results = {
                    cell.config_hash: _reference_metrics(cell)
                    for cell in cells
                }
                cached: set[str] = set()
            else:
                from repro.sweep.executor import run_cells

                self._results, cached, failure_report = run_cells(
                    cells,
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                    progress=self.progress,
                )
                failed = failure_report.failed
        obs.count_many({
            "plan.cells": len(cells),
            "plan.computed": len(cells) - len(cached) - failed,
            "plan.cached": len(cached),
        })
        self._stats = BackendStats(
            backend=self.backend,
            computed=len(cells) - len(cached) - failed,
            cached=len(cached),
            elapsed=time.perf_counter() - started,
            failed=failed,
        )
        if failed:
            # An experiment needs every scheduled measurement: a sweep
            # may tolerate quarantined cells, a paper table cannot.
            raise RuntimeError(
                "measurement plan quarantined "
                f"{failed} cell(s): "
                + "; ".join(failure_report.summary_lines())
            )
        return self._stats

    def _metrics_for(self, config_hash: str) -> dict:
        if self._results is None:
            raise RuntimeError(
                "measurement not available: call plan.execute() first"
            )
        return self._results[config_hash]


# ----------------------------------------------------------------------
# scatter stage: metrics dict -> the serial harness's value types
# ----------------------------------------------------------------------
def _wrap_rotor_cover(metrics: dict) -> int:
    cover = metrics.get("cover")
    if cover is None:
        # Mirrors the serial engines' loud budget failure.
        raise RuntimeError("not covered within the round budget")
    return int(cover)


def _wrap_rotor_return(metrics: dict, n: int, k: int):
    from repro.analysis.return_time import RingReturnTime

    if metrics.get("preperiod") is None or metrics.get("period") is None:
        raise RuntimeError("no limit cycle confirmed within the round budget")
    return RingReturnTime(
        n=n,
        k=k,
        worst_gap=float(metrics["worst_gap"]),
        best_gap=float(metrics["best_gap"]),
        preperiod=int(metrics["preperiod"]),
        period=int(metrics["period"]),
    )


def _wrap_walk_cover(metrics: dict) -> CoverEstimate:
    samples = metrics.get("cover_samples")
    if samples is None or any(value < 0 for value in samples):
        raise RuntimeError("walk not covered within the round budget")
    # Rebuilt from the raw samples through the one shared definition
    # of the summary/CI arithmetic, so both backends yield
    # float-identical estimates.
    return CoverEstimate.from_samples(samples)


def _wrap_walk_gaps(metrics: dict) -> GapStatistics:
    return GapStatistics.from_metrics(metrics)


# ----------------------------------------------------------------------
# reference backend: the original serial functions, cell by cell
# ----------------------------------------------------------------------
def _reference_metrics(cell) -> dict:
    if isinstance(cell, RotorCell):
        return _reference_rotor(cell)
    if isinstance(cell, WalkCoverCell):
        return _reference_walk_cover(cell)
    if isinstance(cell, WalkGapsCell):
        return _reference_walk_gaps(cell)
    if isinstance(cell, GeneralRotorCell):
        return _reference_general(cell)
    raise TypeError(f"unsupported cell type {type(cell).__name__}")


def _reference_rotor(cell: RotorCell) -> dict:
    metrics: dict = {}
    if "cover" in cell.metrics:
        from repro.analysis.cover_time import ring_rotor_cover_time

        metrics["cover"] = ring_rotor_cover_time(
            cell.n, list(cell.agents), list(cell.directions), cell.max_rounds
        )
    if "stabilization" in cell.metrics or "return" in cell.metrics:
        from repro.analysis.return_time import ring_rotor_return_time_exact

        result = ring_rotor_return_time_exact(
            cell.n, list(cell.agents), list(cell.directions), cell.max_rounds
        )
        metrics.update(
            preperiod=int(result.preperiod),
            period=int(result.period),
            worst_gap=float(result.worst_gap),
            best_gap=float(result.best_gap),
        )
    return metrics


def _reference_walk_cover(cell: WalkCoverCell) -> dict:
    from repro.randomwalk.ring_walk import RingRandomWalks

    samples = [
        int(
            RingRandomWalks(
                cell.n, list(cell.agents), seed=seed
            ).run_until_covered(cell.max_rounds)
        )
        for seed in cell.seeds
    ]
    # Derived statistics through the shared arithmetic, so cached/raw
    # metric dicts are comparable across backends.
    estimate = CoverEstimate.from_samples(samples)
    return {
        "cover_reps": len(samples),
        "cover_truncated": 0,
        "cover_samples": samples,
        "cover": estimate.mean,
        "cover_std": estimate.summary.std,
        "cover_ci_low": estimate.ci_low,
        "cover_ci_high": estimate.ci_high,
    }


def _reference_walk_gaps(cell: WalkGapsCell) -> dict:
    from repro.randomwalk.visits import ring_walk_gap_statistics

    stats = ring_walk_gap_statistics(
        cell.n,
        cell.k,
        node=cell.node,
        observation_rounds=cell.observation_rounds,
        burn_in=cell.burn_in,
        seed=cell.seed,
    )
    return stats.to_metrics()


def _reference_general(cell: GeneralRotorCell) -> dict:
    from repro.analysis.cover_time import rotor_cover_time_general
    from repro.graphs.base import PortLabeledGraph

    graph = PortLabeledGraph(cell.graph_ports, validate=False)
    return {
        "cover": rotor_cover_time_general(
            graph, list(cell.agents), list(cell.ports), cell.max_rounds
        )
    }
