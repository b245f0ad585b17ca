"""One iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so every iteration
pays interpreter start and imports as a user does.  It prints one JSON
object on its last stdout line:

* ``setup_ref_s`` — CPU seconds of the main thread at the end of
  set-up (interpreter start, imports and input generation), at the
  reference speed (see ``speed.py``);
* ``wall_s`` and ``cpu_s`` — wall and CPU seconds of the cold pass
  (CPU of workers included), ``ref_s`` — ``cpu_s`` at the reference
  speed; ``warm_ref_s`` — the median of a warm pass's ``ref_s`` (warm
  passes repeat until they add up to ``--warm-budget`` seconds, at
  least one);
* ``cells``/``computed``/``failed_cells``/``reports`` and the cold
  ``digests``;
* ``problems`` — output checks that failed (warm pass differs from the
  cold pass, a warm pass computed cells, a sampled cell disagrees with
  the reference engine);
* ``peak_rss_mb`` — peak RSS of this process plus its largest worker;
* with ``--traced``, ``layers``: the per-layer metrics of one traced
  cold + warm pass (see ``layers.py``).

With ``--setup-only`` it stops after set-up and prints the set-up times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from layers import SETUP_IMPORTS, Instruments, layer_metrics
from speed import SpeedProbe
from workloads import WORKLOADS, cache_bytes


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped workers so far.

    The executor joins its pool before a sweep returns, so a pass's
    workers are counted by its end.  Unlike wall time, this leaves out
    the time a shared host's hypervisor gives the core to others.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _timed(fn, probe: SpeedProbe):
    """``fn()``, its wall and CPU seconds, and the CPU at reference speed."""
    mark = probe.mark()
    cpu = _cpu_s()
    start = time.perf_counter()
    result = fn()
    wall, cpu = time.perf_counter() - start, _cpu_s() - cpu
    return result, wall, cpu, probe.at_reference(cpu, mark)


def _warm_problems(cold, warm) -> list[str]:
    problems = []
    if warm.computed:
        problems.append(f"warm pass computed {warm.computed} cell(s)")
    for name, value in warm.digests.items():
        if cold.digests.get(name) != value:
            problems.append(f"warm report {name!r} differs from cold")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--warm-budget", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cache_dir = os.path.join(args.work_dir, "cache")
    probe = SpeedProbe().start()
    # Traced iterations run under -X importtime; these marks bracket the
    # imports set-up pays.
    os.write(2, b"perfbench: setup begins\n")
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.size, cache_dir)
    for module_name in SETUP_IMPORTS:
        importlib.import_module(module_name)
    # The main thread's time: numpy's thread pool starts at import and
    # spins for a while, by chance.
    setup_cpu_s = time.thread_time()
    os.write(2, b"perfbench: setup ends\n")
    out: dict = {"setup_ref_s": probe.at_reference(setup_cpu_s, (0, 0))}
    if args.setup_only:
        probe.stop()
        print(json.dumps(out))
        return 0

    if args.traced:
        from repro.obs import load_manifest, trace_session

        Instruments().install()
        manifest_path = os.path.join(args.work_dir, "trace.jsonl")
        start = time.perf_counter()
        with trace_session(manifest_path, meta={"bench": args.workload}):
            cold, wall_s, cpu_s, ref_s = _timed(workload.cold, probe)
            warm, _, _, warm_ref_s = _timed(workload.warm, probe)
        traced_s = time.perf_counter() - start
        out["layers"] = layer_metrics(
            load_manifest(manifest_path),
            traced_s=traced_s,
            jobs=workload.jobs,
            disk_bytes=cache_bytes(cache_dir),
        )
        warm_times = [warm_ref_s]
        problems = _warm_problems(cold, warm)
    else:
        cold, wall_s, cpu_s, ref_s = _timed(workload.cold, probe)
        warm_times = []
        problems = []
        while not warm_times or sum(warm_times) < args.warm_budget:
            warm, _, _, warm_ref_s = _timed(workload.warm, probe)
            warm_times.append(warm_ref_s)
            problems += _warm_problems(cold, warm)
    probe.stop()
    problems += workload.check(cold)
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        ref_s=ref_s,
        warm_ref_s=statistics.median(warm_times),
        cells=cold.cells,
        computed=cold.computed,
        failed_cells=cold.failed,
        reports=workload.reports(),
        digests=cold.digests,
        problems=problems,
        peak_rss_mb=_peak_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
