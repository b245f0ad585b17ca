"""[perf] The batched SQLite result store vs the per-cell JSON-tree probe.

The store exists because ROADMAP-scale sweeps make the cache the wall:
the executor's original cache, one JSON file per cell, paid one
``open``/``json.load``/identity-check per cell on a warm rerun, while
the SQLite store answers the same whole-plan probe with one table scan
or a few indexed ``IN (...)`` queries.  This bench builds a >=20k-cell
synthetic grid, times the store's cold write, warm read and mixed
(half hit / half miss) probe, and asserts the acceptance floor: the
batched warm read must beat the per-cell JSON probe — the tree's
``put``/``lookup``, kept verbatim below as the baseline — by >=10x.

``BENCH_STORE_QUICK=1`` shrinks the grid and relaxes the floor for CI
smoke runners, where a small grid undersells the batched probe (fixed
per-query overhead dominates) and noisy neighbors blur timings.
"""

import json
import os
import time

from conftest import record_sweep_bench
from repro.sweep.spec import SweepConfig
from repro.sweep.store import SqliteStore, StoreEntry

QUICK = os.environ.get("BENCH_STORE_QUICK", "") not in ("", "0")

CELLS = 2_000 if QUICK else 20_000
#: Cells per put_many call — the executor commits one chunk at a time,
#: so the cold-write numbers reflect its transaction cadence.
PUT_CHUNK = 512
MIN_WARM_SPEEDUP = 3.0 if QUICK else 10.0


class JsonTreeBaseline:
    """The one-file-per-cell cache's writer and per-cell reader, verbatim."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def path(self, config_hash: str) -> str:
        return os.path.join(
            self.directory, config_hash[:2], f"{config_hash}.json"
        )

    def lookup(self, config) -> tuple[dict | None, str]:
        path = self.path(config.config_hash)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None, "miss"
        except (OSError, ValueError):
            return None, "corrupt"
        if (
            not isinstance(entry, dict)
            or entry.get("config") != config.identity()
        ):
            return None, "corrupt"
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            return None, "corrupt"
        return metrics, "hit"

    def put(self, config, metrics: dict) -> str:
        path = self.path(config.config_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = StoreEntry(config=config.identity(), metrics=metrics)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload.identity(), handle, sort_keys=True)
        os.replace(tmp, path)  # atomic: concurrent writers agree anyway
        return path


def _grid() -> list[SweepConfig]:
    """``CELLS`` distinct cells: identity varies only by seed/n/k."""
    return [
        SweepConfig(
            n=64 + (i % 7),
            k=2 + (i % 5),
            placement="random",
            pointer="random",
            seed=i,
            metrics=("cover",),
            max_rounds=10_000,
        )
        for i in range(CELLS)
    ]


def _metrics(i: int) -> dict:
    # The shape of a real rotor-cell entry: {"cover": <round count>}.
    return {"cover": 2 * i + 1}


def _cold_write(store, cells) -> float:
    started = time.perf_counter()
    for at in range(0, len(cells), PUT_CHUNK):
        chunk = cells[at:at + PUT_CHUNK]
        store.put_many(
            [(cell, _metrics(at + j)) for j, cell in enumerate(chunk)]
        )
    return time.perf_counter() - started


def _warm_read(store, cells) -> tuple[float, int]:
    started = time.perf_counter()
    found, _ = store.lookup_many(cells)
    return time.perf_counter() - started, len(found)


def _per_cell_read(tree: JsonTreeBaseline, cells) -> tuple[float, int]:
    """The original executor probe: one tree lookup per cell."""
    started = time.perf_counter()
    hits = sum(
        1 for cell in cells if tree.lookup(cell)[0] is not None
    )
    return time.perf_counter() - started, hits


def test_store_throughput(benchmark, tmp_path):
    cells = _grid()
    half = cells[: CELLS // 2]

    store = SqliteStore(str(tmp_path / "sqlite"))
    write_s = _cold_write(store, cells)
    warm_s, warm_hits = _warm_read(store, cells)
    assert warm_hits == CELLS
    facts = {
        "cold_write_s": round(write_s, 4),
        "warm_read_s": round(warm_s, 4),
        "warm_cells_per_sec": round(CELLS / warm_s),
    }
    store.close()

    # Mixed workload: a store holding only half the grid is probed for
    # all of it — the planner's everyday shape on a resumed sweep.
    mixed = SqliteStore(str(tmp_path / "mixed"))
    _cold_write(mixed, half)
    mixed_s, mixed_hits = _warm_read(mixed, cells)
    assert mixed_hits == len(half)
    facts["mixed_read_s"] = round(mixed_s, 4)
    mixed.close()

    # The asserted ratio: batched probe vs the per-cell JSON path
    # run_cells used before the batched store.  Best-of-3 on the
    # SQLite side smooths allocator/page-cache jitter.
    tree = JsonTreeBaseline(str(tmp_path / "json"))
    for i, cell in enumerate(cells):
        tree.put(cell, _metrics(i))
    per_cell_s, per_cell_hits = _per_cell_read(tree, cells)
    assert per_cell_hits == CELLS

    sqlite_store = SqliteStore(str(tmp_path / "sqlite"))
    timings: list[float] = []

    def probe() -> int:
        warm_s, hits = _warm_read(sqlite_store, cells)
        timings.append(warm_s)
        return hits

    assert benchmark(probe) == CELLS
    while len(timings) < 3:
        probe()
    sqlite_store.close()

    batched_s = min(timings)
    speedup = per_cell_s / batched_s
    benchmark.extra_info["cells"] = CELLS
    benchmark.extra_info["sqlite batched warm-read s"] = round(batched_s, 4)
    benchmark.extra_info["json per-cell warm-read s"] = round(per_cell_s, 4)
    benchmark.extra_info["speedup vs per-cell json"] = round(speedup, 1)
    record_sweep_bench(
        "store",
        {
            "cells": CELLS,
            "put_chunk": PUT_CHUNK,
            "quick": QUICK,
            "sqlite": facts,
            "json_per_cell_read_s": round(per_cell_s, 4),
            "sqlite_batched_read_s": round(batched_s, 4),
            "warm_read_speedup_vs_per_cell_json": round(speedup, 1),
            "floor": MIN_WARM_SPEEDUP,
        },
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"batched sqlite warm read is only {speedup:.1f}x the per-cell "
        f"json path ({batched_s:.3f}s vs {per_cell_s:.3f}s for "
        f"{CELLS} cells; floor {MIN_WARM_SPEEDUP}x)"
    )
