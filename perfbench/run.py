"""Repository benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce_quick --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload grid_churn --seed 3 --seconds 30 --trace 1

Workloads (``workloads.py``): ``reproduce_quick`` (every experiment of
``repro all --quick``), ``sweep_cold`` (five registered scenarios at
full size, ``jobs=2``) and ``grid_churn`` (a seeded wide grid of cheap
cells, cold then warm).

A run is a closed loop of iterations from this driver, each in a fresh
interpreter (``iteration.py``): iterations start until ``--seconds``
have passed, so the last one may end after that.  Before and after the
loop, untraced runs also start the interpreter a few times for set-up
only, so ``setup_s`` is a median over several set-ups.

Times of the end-to-end metrics are CPU seconds at a reference core
speed (``speed.py``): a shared host's cores drift in speed by tens of
percent within seconds, in wall and CPU time alike, so each time is
scaled by how fast a fixed probe loop ran, on the same core, while the
timed code ran.  That leaves the drift out and keeps what the code
costs.

``--trace 0`` reports the end-to-end metrics, medians over iterations:
``cpu_s`` (the cold pass, workers included), ``setup_s`` (interpreter
start, imports and input generation, on the main thread),
``cells_per_cpu_s`` (cells delivered per ``cpu_s``), ``warm_cpu_s``
(the cacheable work again over the filled cache; warm passes repeat
for at least ``WARM_BUDGET_S`` and their median counts) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics of ``layers.py`` (wall
seconds, medians over the traced iterations), plus ``wall_s`` (the
untraced cold pass in wall seconds, where ``jobs=2`` shows),
``obs.overhead_ratio`` (traced over untraced ``cpu_s``) and
``host.calib_s`` (the median time of a fixed loop).

Every iteration's outputs are checked: report digests against the
pinned ones in ``expected.json`` (seed-independent workloads for every
seed, ``grid_churn`` for seed 0), against every other iteration of the
run (so tracing never changes a result), warm against cold, and a
seeded sample of ``grid_churn`` cells against the reference serial
engine.  ``attempted`` counts cells plus reports, ``failed``
quarantined cells plus failed checks; ``error_rate`` is their ratio.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
check passed, 1 when a check failed, 2 when the benchmark could not
run (for example, no ``src/repro`` in the working directory).
``--record FILE`` appends the result, with each iteration's and each
set-up's times, to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import calibrate, per_layer_names, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("cells_per_cpu_s", "1/s"),
    ("warm_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Warm passes of an untraced iteration repeat until they add up to
#: this many reference CPU seconds; ``warm_cpu_s`` is their median.
WARM_BUDGET_S = 2.0

#: Set-up-only interpreter starts of an untraced run, besides the
#: iterations' own set-ups.
SETUP_PROBES = 12

#: A run must end well inside three minutes, whatever ``--seconds`` is.
RUN_LIMIT_S = 170.0

WORK_ROOT = ".perfbench-work"

#: Pinned report digests (see ``_pinned_digests``).
EXPECTED = os.path.join(HERE, "expected.json")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def _import_times(stderr_path: str) -> dict[str, float]:
    """``import.s`` and ``import.theory_ode_s`` from an -X importtime log.

    ``import.s`` sums the cumulative time of the top-level imports
    between the iteration's set-up marks; ``import.theory_ode_s`` is
    ``repro.theory.ode``'s cumulative time there (0 if set-up did not
    import it).
    """
    total = ode = 0
    inside = False
    with open(stderr_path) as handle:
        for line in handle:
            if line.startswith("perfbench: setup"):
                inside = line.strip().endswith("begins")
                continue
            fields = line.split("|")
            if not inside or not line.startswith("import time:"):
                continue
            cumulative, name = int(fields[1]), fields[2].rstrip("\n")
            if not name.startswith("  "):
                total += cumulative
            if name.strip() == "repro.theory.ode":
                ode = cumulative
    return {"import.s": total / 1e6, "import.theory_ode_s": ode / 1e6}


class Driver:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.size = "smoke" if args.smoke else "full"
        self.started = time.monotonic()
        self.children = 0

    def child(self, traced: bool = False, setup_only: bool = False) -> dict:
        """Run ``iteration.py`` once; returns its result."""
        self.children += 1
        work_dir = os.path.join(WORK_ROOT, f"{os.getpid()}-{self.children}")
        os.makedirs(work_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [sys.executable]
        if traced:
            command += ["-X", "importtime"]
        command += [
            os.path.join(HERE, "iteration.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.size,
            "--work-dir", work_dir,
            "--warm-budget", str(WARM_BUDGET_S),
        ]
        if traced:
            command.append("--traced")
        if setup_only:
            command.append("--setup-only")
        stderr_path = os.path.join(work_dir, "stderr.txt")
        timeout = self.started + RUN_LIMIT_S - time.monotonic()
        try:
            with open(stderr_path, "w") as stderr:
                # Own process group, so whatever the iteration started
                # (pool workers, the shared-memory tracker) ends with it.
                proc = subprocess.Popen(
                    command, stdout=subprocess.PIPE, stderr=stderr, env=env,
                    text=True, start_new_session=True,
                )
                try:
                    stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
                except subprocess.TimeoutExpired:
                    raise BenchError("iteration exceeded the run time limit")
                finally:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    proc.wait()
            if proc.returncode != 0:
                with open(stderr_path) as handle:
                    tail = [
                        line for line in handle
                        if not line.startswith("import time:")
                    ][-15:]
                raise BenchError(
                    f"iteration exited {proc.returncode}:\n" + "".join(tail)
                )
            result = json.loads(stdout.strip().splitlines()[-1])
            if traced:
                result["layers"].update(_import_times(stderr_path))
            return result
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def loop(self, iteration) -> list:
        """Closed loop: start iterations until ``--seconds`` have passed."""
        results = []
        start = time.monotonic()
        while not results or time.monotonic() - start < self.args.seconds:
            results.append(iteration(len(results)))
        return results


def _pinned_digests(workload: str, size: str, seed: int) -> dict:
    with open(EXPECTED) as handle:
        table = json.load(handle).get(workload, {}).get(size, {})
    return table.get("any") or table.get(str(seed)) or {}


def _failed_checks(results: list[dict], pinned: dict) -> tuple[int, list]:
    """Failed operations over all iterations, and one line per failure.

    Every iteration's digests must equal the pinned ones or, where none
    are pinned for the seed, the first iteration's: traced and untraced
    iterations alike, since tracing never changes a result.
    """
    reference = pinned or results[0]["digests"]
    source = "pinned" if pinned else "first iteration"
    failed = 0
    lines = []
    for index, result in enumerate(results):
        problems = list(result["problems"])
        problems += [
            f"report {name!r} digest differs from the {source} digest"
            for name in sorted(set(reference) | set(result["digests"]))
            if result["digests"].get(name) != reference.get(name)
        ]
        failed += result["failed_cells"] + len(problems)
        if result["failed_cells"]:
            problems.append(f"{result['failed_cells']} cell(s) quarantined")
        lines += [f"iteration {index}: {problem}" for problem in problems]
    return failed, lines


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join("src", "repro")):
        raise BenchError(
            "src/repro not found: run from the root of a checkout"
        )
    driver = Driver(args)
    metrics: dict[str, dict] = {}
    if args.trace:
        calib_s = statistics.median(calibrate() for _ in range(3))

        def pair(index: int) -> tuple[dict, dict]:
            # Alternate which side goes first, so drift hits both.
            first = driver.child(traced=index % 2 == 1)
            second = driver.child(traced=index % 2 == 0)
            return (second, first) if index % 2 else (first, second)

        pairs = driver.loop(pair)
        untraced = [plain for plain, _ in pairs]
        traced = [instrumented for _, instrumented in pairs]
        results = untraced + traced
        setups = untraced
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["obs.overhead_ratio"] = statistics.median(
            r["ref_s"] for r in traced
        ) / statistics.median(r["ref_s"] for r in untraced)
        layers["wall_s"] = statistics.median(r["wall_s"] for r in untraced)
        layers["host.calib_s"] = calib_s
        for name in per_layer_names():
            metrics[name] = {"value": layers[name], "unit": unit_of(name)}
    else:
        # Half the probes before the loop and half after it, so a slow
        # spell of the host at either end moves the median less.
        def probe() -> list[dict]:
            return [
                driver.child(setup_only=True)
                for _ in range(SETUP_PROBES // 2)
            ]

        probes = probe()
        results = driver.loop(lambda index: driver.child())
        setups = probes + results + probe()
        median = statistics.median
        values = {
            "cpu_s": median(r["ref_s"] for r in results),
            "setup_s": median(r["setup_ref_s"] for r in setups),
            "cells_per_cpu_s": median(r["cells"] / r["ref_s"] for r in results),
            "warm_cpu_s": median(r["warm_ref_s"] for r in results),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    pinned = _pinned_digests(args.workload, driver.size, args.seed)
    failed, failures = _failed_checks(results, pinned)
    attempted = sum(r["cells"] + r["reports"] for r in results)
    for line in failures:
        print(f"check failed: {line}")
    print(
        f"workload {args.workload} (seed {args.seed}, {driver.size}): "
        f"{len(results)} iteration(s)"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "size": driver.size, "result": result,
                # Raw wall and CPU seconds beside the reference-speed
                # ones, to show what the scaling took out.
                "wall_samples": [r["wall_s"] for r in results],
                "cpu_samples": [r["cpu_s"] for r in results],
                "ref_samples": [r["ref_s"] for r in results],
                "warm_samples": [r["warm_ref_s"] for r in results],
                "setup_samples": [r["setup_ref_s"] for r in setups],
            }) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs (the benchmark's self-test size)",
    )
    parser.add_argument(
        "--record", metavar="FILE", default=None,
        help="append the result to this JSON-lines file (see compare.py)",
    )
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
