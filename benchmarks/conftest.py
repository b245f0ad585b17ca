"""Shared benchmark configuration.

Each benchmark reproduces one paper artifact at a scaled-down size (so
the whole suite runs in minutes), records its headline measurements in
``benchmark.extra_info`` (visible with ``pytest benchmarks/
--benchmark-only --benchmark-verbose`` and in saved JSON), and asserts
the paper's *shape* claims.  The full-size reproductions run as
``python -m repro run <name>``: each experiment runner takes a
:class:`repro.analysis.backend.MeasurementPlan`, its keyword defaults
are the full size, and its module's ``QUICK`` dict holds the
``--quick`` overrides.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Machine-readable perf trajectory of the sweep subsystem: every
#: ``bench_sweep_*`` benchmark merges its headline numbers (rounds/sec,
#: speedup vs reference, workload config) into this file, keyed by
#: benchmark name, so the numbers can be compared across PRs and
#: uploaded as a CI artifact.
BENCH_SWEEP_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Perf trajectory of the paper-reproduction experiments (``python -m
#: repro run``) through the batched analysis backend, maintained by
#: ``bench_experiments.py`` with the same merge discipline.
BENCH_EXPERIMENTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_experiments.json"
)


def _record_bench(path: Path, name: str, payload: dict) -> Path:
    """Merge one benchmark's results into a JSON trajectory file.

    Read-modify-write with a same-directory temp file and atomic
    replace, so benchmarks running in any order (or interrupted) leave
    a valid JSON document; unreadable existing content is replaced
    rather than crashing the benchmark.
    """
    data: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict):
                data = existing
        except (OSError, ValueError):
            pass
    data[name] = payload
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def record_sweep_bench(name: str, payload: dict) -> Path:
    """Merge one sweep benchmark's results into ``BENCH_sweep.json``."""
    return _record_bench(BENCH_SWEEP_PATH, name, payload)


def record_experiments_bench(name: str, payload: dict) -> Path:
    """Merge one experiment benchmark's results into
    ``BENCH_experiments.json``."""
    return _record_bench(BENCH_EXPERIMENTS_PATH, name, payload)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an experiment function as a single measured run.

    Reproduction experiments are deterministic-or-seeded and expensive;
    one round with one iteration gives a representative wall-clock time
    without re-running the sweep five times.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
