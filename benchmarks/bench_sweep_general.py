"""[perf] CSR-batched general-graph kernel vs the serial per-cell engine.

Before this kernel, the general-graph cells behind ``speedup_graphs``
(and any :meth:`~repro.analysis.backend.MeasurementPlan.rotor_cover_general`
request) were the last serial compute path in the codebase: the
executor's general chunk ran one
:class:`repro.core.engine.MultiAgentRotorRouter` per cell, round by
round, each round costing an ``np.flatnonzero`` over all n nodes plus
a Python loop over the occupied ones.  The CSR kernel
(:mod:`repro.sweep.batch_general`) instead steps *all* cells of a
chunk — across seeds, k-values and families — as lanes of one sparse
batch: per round a fixed sequence of numpy ops over the occupied
(lane, node) pairs only, plus a scalar pure-Python finisher for the
long straggler tails where numpy dispatch cannot be amortized.

This benchmark pins the delivered speedup on a **speedup_graphs-shaped
grid** — the scaled default families (torus / hypercube / clique /
lollipop / G(n,p); random-regular is left out) over the k-ladder
with the k = 1 speed-up baselines and per-family seeds:

* **serial** — the pre-PR ``_compute_general_chunk`` body, kept
  verbatim below: one reference engine per cell;
* **batch** — ``batch_general_covers`` over the same cells as one
  kernel invocation (exactly what the executor's general chunk runs).

Identity gates the timing: every cell's cover round must be
bit-identical across the two paths before a speedup is reported.
Headline numbers land in ``extra_info`` and ``BENCH_sweep.json`` (see
``conftest.record_sweep_bench``), uploaded as the existing CI
artifact.  ``BENCH_SWEEP_QUICK=1`` shrinks the grid for CI smoke runs
(small grids cannot amortize batching, so the quick floor is lower;
the full shape keeps the >= 10x acceptance bar).
"""

import os
import time

from conftest import record_sweep_bench
from repro.core.engine import MultiAgentRotorRouter
from repro.graphs import clique, gnp_random_graph, hypercube, lollipop, torus_2d
from repro.sweep.batch_general import batch_general_covers
from repro.sweep.cells import GeneralRotorCell
from repro.sweep.spec import general_instance

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")

#: CI smoke runners are noisy-neighbor machines and the quick grid is
#: too small to amortize batching; the full shape carries the >= 10x
#: acceptance bar of the migration, the quick shape a floor.
MIN_SPEEDUP = 1.5 if QUICK else 10.0

KS = (1, 2, 4) if QUICK else (1, 2, 4, 8, 16, 32)
SEEDS = (0, 1) if QUICK else (0, 1, 2, 3, 4, 5)


def _families():
    """The speedup_graphs default shape (sans random-regular), bench-sized."""
    if QUICK:
        return {
            "torus": torus_2d(8, 8),
            "hypercube": hypercube(6),
            "lollipop": lollipop(10, 12),
            "gnp": gnp_random_graph(64, 0.12, seed=5),
        }
    return {
        "torus": torus_2d(32, 32),
        "hypercube": hypercube(10),
        "clique": clique(128),
        "lollipop": lollipop(48, 80),
        "gnp": gnp_random_graph(512, 0.02, seed=5),
    }


def _grid():
    """Materialize the (family x k x seed) grid as general cells."""
    cells, graphs = [], {}
    for name, graph in sorted(_families().items()):
        budget = 16 * graph.diameter() * graph.num_edges + 64
        graphs[name] = graph
        for k in KS:
            for seed in SEEDS:
                agents, ports = general_instance(graph, k, seed)
                cells.append(
                    (name, GeneralRotorCell.from_graph(
                        graph, agents, ports, budget
                    ))
                )
    return cells, graphs


def _run_serial(cells, graphs):
    """The pre-PR general chunk, verbatim: one engine per cell."""
    covers = []
    for name, cell in cells:
        engine = MultiAgentRotorRouter(
            graphs[name], list(cell.ports), list(cell.agents)
        )
        try:
            cover = engine.run_until_covered(cell.max_rounds)
        except RuntimeError:
            cover = None
        covers.append(cover)
    return covers


def _run_batch(cells):
    """The shipped path: every cell one lane of one kernel invocation."""
    covers = batch_general_covers(
        [
            (cell.csr(), cell.ports, cell.agents, cell.max_rounds)
            for _, cell in cells
        ],
        strict=False,
    )
    return [int(c) if c >= 0 else None for c in covers]


def test_general_kernel_speedup(benchmark):
    cells, graphs = _grid()
    batch_timings: list[float] = []
    serial_timings: list[float] = []
    outputs: dict[str, list] = {}

    def run_batch():
        started = time.perf_counter()
        covers = _run_batch(cells)
        batch_timings.append(time.perf_counter() - started)
        outputs["batch"] = covers
        return covers

    def run_serial():
        started = time.perf_counter()
        covers = _run_serial(cells, graphs)
        serial_timings.append(time.perf_counter() - started)
        outputs["serial"] = covers
        return covers

    # Manual timing inside the workload keeps the ratio available even
    # under --benchmark-disable; the sides run interleaved (batch
    # best-of-3 against serial best-of-2) so thermal and noisy-neighbor
    # effects hit both alike.
    benchmark(run_batch)
    run_serial()
    while len(batch_timings) < 3:
        run_batch()
    run_serial()

    # Identity first: the speedup only counts if every cell's cover
    # round is bit-identical across the two paths.
    assert outputs["batch"] == outputs["serial"]

    elapsed = min(batch_timings)
    serial_elapsed = min(serial_timings)
    speedup = serial_elapsed / elapsed
    payload = {
        "families": sorted(_families()),
        "ks": list(KS),
        "seeds": list(SEEDS),
        "cells": len(cells),
        "quick": QUICK,
        "batch_sec": round(elapsed, 4),
        "serial_sec": round(serial_elapsed, 4),
        "cells_per_sec": round(len(cells) / elapsed, 1),
        "speedup_vs_serial": round(speedup, 2),
    }
    for key, value in payload.items():
        benchmark.extra_info[key] = value
    record_sweep_bench("general_graphs", payload)
    assert speedup >= MIN_SPEEDUP, (
        f"batched general kernel only {speedup:.1f}x the serial per-cell "
        f"engine on the speedup_graphs-shaped grid ({elapsed:.3f}s vs "
        f"{serial_elapsed:.3f}s)"
    )
