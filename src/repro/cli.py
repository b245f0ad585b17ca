"""Command-line interface: run any reproduction experiment or sweep.

Usage (after ``pip install -e .``, which also installs the ``repro``
console script)::

    python -m repro list                 # experiments + sweep scenarios
    python -m repro run table1           # one experiment
    python -m repro run theorem1 --quick --jobs 2   # CI smoke size
    python -m repro run theorem6 --csv out/   # also save CSVs
    python -m repro all --quick          # everything, scaled down
    python -m repro sweep table1 --jobs 4     # declarative cached sweep
    python -m repro sweep stabilization --quick --cache out/cache
    python -m repro cache info .sweep-cache   # entries, bytes, schema
    python -m repro cache verify .sweep-cache --repair  # integrity scan
    python -m repro sweep table1 --jobs 4 --chunk-timeout 60 --max-retries 3
    python -m repro lint src/repro       # determinism static analysis
    python -m repro lint --update-lock   # re-pin cache_identity.lock

``run`` is a thin dispatcher over :mod:`repro.experiments`.  Each
experiment module's ``QUICK`` maps its report runners, in report
order, to their ``--quick`` keyword overrides; the runners' own
defaults define the "full size".  Every runner,
``run_<name>(plan, **sizes)``, gets a fresh
:class:`repro.analysis.backend.MeasurementPlan` built from
``--jobs``/``--cache``.  The paper-reproduction grids (Table 1, the
theorems, stabilization, the general-graph speed-up) schedule their
cells on it, so experiment cells are batched, parallelized and cached
like sweep cells; the figures and the §2.3 comparison trace serially
and leave it empty.
``sweep`` executes a registered :mod:`repro.sweep`
scenario through the batched kernel and the parallel executor; results
land in the on-disk result store of :mod:`repro.sweep.store` — one
SQLite file, ``cells.db``, in the ``--cache`` directory (default
``.sweep-cache``; ``sqlite://DIR`` names the same store) — so
repeating or resuming a sweep only computes the missing cells.
``python -m repro cache`` inspects, compacts and integrity-checks a
store (``verify [--repair]`` re-digests every row and quarantines
corrupt ones).
A sweep, and each grid experiment of ``run``, ends with a one-line
``computed=X cached=Y`` accounting — plus ``failed=Z`` when the
fault-tolerant executor had to quarantine cells (``sweep
--max-retries``/``--chunk-timeout`` tune its supervision; see
:mod:`repro.sweep.executor`).

``--trace PATH`` (on ``run``/``all``/``sweep``) records a
:mod:`repro.obs` manifest — executor spans, kernel counters, cache
traffic, per-worker time — without changing any result; ``python -m
repro stats PATH`` renders it as per-phase, cache and per-kernel
tables.

``python -m repro lint [PATHS]`` runs the determinism &
cache-identity static analysis of :mod:`repro.lint` (rules D001–D003,
T001 and the I001 ``cache_identity.lock`` check) over the source tree;
``--update-lock`` re-pins the identity lockfile after an intentional
schema change.  Exit status 1 means non-suppressed findings.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Callable

from repro.experiments.harness import Report

DEFAULT_SWEEP_CACHE = ".sweep-cache"

EXPERIMENTS: dict[str, tuple[str, str]] = {
    # name -> (module, description)
    "table1": ("repro.experiments.table1", "Table 1: cover & return times"),
    "theorem1": (
        "repro.experiments.theorem1",
        "Thm 1: worst placement Θ(n²/log k) + proof deployment",
    ),
    "theorem2": (
        "repro.experiments.theorem2",
        "Thm 2: any initialization is O(n²/log k)",
    ),
    "theorem3": (
        "repro.experiments.theorem3",
        "Thm 3: equal spacing covers in O(n²/k²)",
    ),
    "theorem4": (
        "repro.experiments.theorem4",
        "Thm 4: pointers forcing Ω(n²/k²) for any placement",
    ),
    "theorem5": (
        "repro.experiments.theorem5",
        "Thm 5: spaced walks Θ((n/k)² log² k)",
    ),
    "theorem6": (
        "repro.experiments.theorem6",
        "Thm 6: return time Θ(n/k)",
    ),
    "figures": (
        "repro.experiments.figures",
        "Figures 1-2: border types, deployment trace",
    ),
    "continuous": (
        "repro.experiments.continuous",
        "§2.3: ODE vs discrete simulation",
    ),
    "speedup_graphs": (
        "repro.experiments.speedup_graphs",
        "extension: speed-up on general graphs",
    ),
    "stabilization": (
        "repro.experiments.stabilization",
        "extension: time-to-limit-cycle across initializations",
    ),
}


def _cmd_list() -> int:
    from repro.sweep import registry

    names = list(EXPERIMENTS) + registry.scenario_names()
    width = max(len(name) for name in names)
    print("experiments (python -m repro run <name>):")
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    print()
    print("sweep scenarios (python -m repro sweep <name>):")
    for name in registry.scenario_names():
        print(f"  {name:<{width}}  {registry.scenario_description(name)}")
    return 0


def _cmd_run(
    name: str,
    csv_dir: str | None,
    quick: bool = False,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> int:
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    from repro.analysis.backend import MeasurementPlan

    module = importlib.import_module(EXPERIMENTS[name][0])
    for runner_name, quick_sizes in module.QUICK.items():
        # Looked up at call time: a profiler may wrap the module's runner.
        runner = getattr(module, runner_name)
        report = runner(
            MeasurementPlan(jobs=jobs, cache_dir=cache_dir),
            **(quick_sizes if quick else {}),
        )
        print(report.render())
        if report.stats is not None:
            # One-line accounting: how many cells actually simulated.
            print(report.stats.summary_line())
        print()
        if csv_dir:
            for path in report.save_csv(csv_dir):
                print(f"wrote {path}")
    return 0


def _cmd_sweep(
    name: str,
    jobs: int,
    cache_dir: str | None,
    quick: bool,
    csv_dir: str | None,
    max_retries: int | None = None,
    chunk_timeout: float | None = None,
) -> int:
    from repro.sweep import registry
    from repro.sweep.aggregate import summary_tables
    from repro.sweep.executor import (
        DEFAULT_MAX_RETRIES,
        StderrProgress,
        run_sweep,
    )

    # Unknown names are rejected at the argparse layer in main().
    spec = registry.scenario(name, quick=quick)
    result = run_sweep(
        spec, jobs=jobs, cache_dir=cache_dir, progress=StderrProgress(),
        max_retries=(
            DEFAULT_MAX_RETRIES if max_retries is None else max_retries
        ),
        chunk_timeout=chunk_timeout,
    )
    report = Report(
        title=f"sweep '{name}'"
        + (" (quick)" if quick else "")
        + f" — spec {spec.spec_hash[:12]}",
        claim=spec.description,
    )
    report.add_table(result.table())
    # Aggregate views join rotor/walk cells of the same (cached) sweep:
    # speed-up S(k) when a k=1 baseline exists, walk/rotor ratios when
    # both models are present.
    for extra in summary_tables(result):
        report.add_table(extra)
    report.add_note(
        f"completed in {result.elapsed:.2f}s "
        f"(jobs={jobs}, cache={cache_dir or 'disabled'})"
    )
    print(report.render())
    # Quarantine details go to stderr like the progress line; the
    # stdout accounting stays one grep-stable line.
    if result.failure_report is not None:
        for line in result.failure_report.summary_lines():
            print(line, file=sys.stderr)
    # The cell accounting lives on this one standardized line (shared
    # with `run`'s backend summary and grepped by CI).  ``failed`` is
    # appended only when nonzero, so fault-free output is unchanged.
    accounting = (
        f"computed={result.cache_misses} cached={result.cache_hits}"
    )
    if result.failed:
        accounting += f" failed={result.failed}"
    print(accounting)
    if csv_dir:
        for path in report.save_csv(csv_dir):
            print(f"wrote {path}")
    return 0


def _cmd_all(
    csv_dir: str | None,
    quick: bool = False,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> int:
    status = 0
    for name in EXPERIMENTS:
        print(f"######## {name} ########")
        status = max(status, _cmd_run(name, csv_dir, quick, jobs, cache_dir))
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sweep.store import store_info, vacuum_store, verify_store

    def show(facts: dict) -> None:
        for key in sorted(facts):
            print(f"{key}={facts[key]}")

    try:
        if args.cache_command == "vacuum":
            show(vacuum_store(args.path))
        elif args.cache_command == "verify":
            verify = verify_store(args.path, repair=args.repair)
            print(verify.summary_line())
            # Exit 1 while unrepaired corruption remains, so CI can
            # gate on a clean store (and on --repair having healed it).
            return 0 if verify.ok else 1
        else:
            show(store_info(args.path))
    except (OSError, ValueError) as exc:
        print(f"cache {args.cache_command} failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(path: str) -> int:
    from repro.obs import load_manifest, render_stats

    try:
        manifest = load_manifest(path)
    except OSError as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid manifest {path!r}: {exc}", file=sys.stderr)
        return 2
    print(render_stats(manifest, path=path))
    return 0


def _positive_int_argument(what: str) -> Callable[[str], int]:
    """argparse type factory for positive integer options.

    Validating at the argparse layer means a bad value (``--jobs -2``)
    exits 2 with a one-line argparse message instead of surfacing a
    traceback from deep inside ``run_sweep``.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive {what}, got {value}"
            )
        return value

    return parse


def _nonnegative_int_argument(what: str) -> Callable[[str], int]:
    """argparse type factory for integer options where 0 is valid."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"must be a non-negative {what}, got {value}"
            )
        return value

    return parse


def _positive_float_argument(what: str) -> Callable[[str], float]:
    """argparse type factory for positive float options (seconds)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}"
            ) from None
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive {what}, got {value}"
            )
        return value

    return parse


_jobs_argument = _positive_int_argument("worker count")
_max_retries_argument = _nonnegative_int_argument("retry count")
_chunk_timeout_argument = _positive_float_argument("second count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction experiments for the multi-agent "
        "rotor-router paper (PODC 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("name", help="experiment name (see 'list')")
    all_parser = sub.add_parser("all", help="run every experiment")
    for exp_parser in (run_parser, all_parser):
        exp_parser.add_argument(
            "--csv", metavar="DIR", default=None, help="also save CSV tables"
        )
        exp_parser.add_argument(
            "--quick", action="store_true",
            help="scaled-down grids (CI smoke size)",
        )
        exp_parser.add_argument(
            "--jobs", type=_jobs_argument, default=1, metavar="N",
            help="worker processes for batched chunks (default: 1)",
        )
        exp_parser.add_argument(
            "--cache", metavar="DIR", default=DEFAULT_SWEEP_CACHE,
            help="result store directory "
            f"(default: {DEFAULT_SWEEP_CACHE}); 'none' disables caching",
        )
        exp_parser.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record a telemetry manifest at PATH (inspect with "
            "'stats'); results are unaffected",
        )
    sweep_parser = sub.add_parser(
        "sweep", help="run a registered sweep scenario (cached, parallel)",
        description="Run a registered sweep scenario through the batched "
        "kernels and the on-disk result cache.  Cache identities are "
        "schema-versioned and guarded by `repro lint` (rule I001).",
    )
    sweep_parser.add_argument("name", help="scenario name (see 'list')")
    sweep_parser.add_argument(
        "--jobs", type=_jobs_argument, default=1, metavar="N",
        help="worker processes (default: 1, serial)",
    )
    sweep_parser.add_argument(
        "--cache", metavar="DIR", default=DEFAULT_SWEEP_CACHE,
        help=f"result store directory (default: {DEFAULT_SWEEP_CACHE}); "
        "'none' disables caching",
    )
    sweep_parser.add_argument(
        "--max-retries", type=_max_retries_argument, default=None,
        metavar="N",
        help="redispatches a failing chunk earns before "
        "bisection/quarantine (default: 2); a robustness knob — "
        "results and cache identities are unaffected",
    )
    sweep_parser.add_argument(
        "--chunk-timeout", type=_chunk_timeout_argument, default=None,
        metavar="SECONDS",
        help="per-chunk deadline with --jobs>1; a hung chunk counts as "
        "a failed attempt and restarts the worker pool (default: no "
        "deadline)",
    )
    sweep_parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down grid (CI smoke size)",
    )
    sweep_parser.add_argument(
        "--csv", metavar="DIR", default=None, help="also save CSV tables"
    )
    sweep_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a telemetry manifest at PATH (inspect with "
        "'stats'); results are unaffected",
    )
    cache_parser = sub.add_parser(
        "cache", help="inspect, verify or compact a result store",
        description="Maintenance tooling for the on-disk result store "
        "(one SQLite file, DIR/cells.db): 'info' reports entries, "
        "bytes and schema, 'verify' re-digests every row, and 'vacuum' "
        "compacts the file.  None of them creates a store that does "
        "not exist.",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    cache_info = cache_sub.add_parser(
        "info", help="report a store's entry count, bytes and schema"
    )
    cache_info.add_argument("path", help="cache directory")
    cache_vacuum = cache_sub.add_parser(
        "vacuum", help="compact a store's database file",
    )
    cache_vacuum.add_argument("path", help="cache directory")
    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-digest every row; report (or --repair) corrupt entries",
        description="Full integrity scan of a result store: every "
        "row's config text is re-digested against its identity hash "
        "and checked for well-formed metrics.  Exits 1 "
        "while unrepaired corruption remains; --repair quarantines "
        "the bad rows so the next sweep recomputes them.",
    )
    cache_verify.add_argument("path", help="cache directory")
    cache_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt rows (the next sweep recomputes them)",
    )
    stats_parser = sub.add_parser(
        "stats", help="inspect a telemetry manifest written by --trace",
        description="Render the per-phase, cache, kernel and worker "
        "tables of a --trace manifest.  (Static-analysis counterpart: "
        "`repro lint` checks the code these numbers come from.)",
    )
    stats_parser.add_argument(
        "path", help="manifest path (the --trace argument of the run)"
    )
    lint_parser = sub.add_parser(
        "lint",
        help="determinism & cache-identity static analysis",
        description="Run the repro.lint rule set (unseeded randomness, "
        "nondeterministic ordering, identity pollution, kernel "
        "telemetry guards, cache-identity lockfile) over the source "
        "tree.  Exits 1 on non-suppressed findings, 2 on usage errors.",
    )
    from repro.lint.cli import configure_parser as _configure_lint

    _configure_lint(lint_parser)
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "stats":
        return _cmd_stats(args.path)
    if args.command == "lint":
        from repro.lint.cli import run_from_args as _run_lint_args

        return _run_lint_args(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "sweep":
        from repro.sweep import registry

        if args.name not in registry.scenario_names():
            # Reject unknown names here — with or without --quick — so
            # every bad invocation exits 2 with one argparse-style line.
            sweep_parser.error(
                f"unknown sweep scenario {args.name!r}; known: "
                + ", ".join(registry.scenario_names())
            )
    if args.cache != "none":
        # A bad spec or an older store layout exits 2 with one line
        # before any cell is computed (opening creates nothing).
        from repro.sweep.store import open_store

        try:
            open_store(args.cache).close()
        except ValueError as exc:
            print(f"{args.command} failed: {exc}", file=sys.stderr)
            return 2
    if args.csv:
        # So does a --csv directory that cannot be created, instead of
        # a traceback after every cell is computed and reported.
        try:
            os.makedirs(args.csv, exist_ok=True)
        except OSError as exc:
            print(f"{args.command} failed: {exc}", file=sys.stderr)
            return 2

    def dispatch() -> int:
        cache_dir = None if args.cache == "none" else args.cache
        if args.command == "run":
            return _cmd_run(
                args.name,
                args.csv,
                quick=args.quick,
                jobs=args.jobs,
                cache_dir=cache_dir,
            )
        if args.command == "sweep":
            return _cmd_sweep(
                args.name, args.jobs, cache_dir, args.quick, args.csv,
                args.max_retries, args.chunk_timeout,
            )
        return _cmd_all(
            args.csv,
            quick=args.quick,
            jobs=args.jobs,
            cache_dir=cache_dir,
        )

    if not args.trace:
        return dispatch()
    from repro.obs import trace_session

    meta = {"command": args.command}
    if getattr(args, "name", None):
        meta["name"] = args.name
    # The session wraps the whole command: the executor checkpoints at
    # every run_cells exit and the exit handler writes the final merge.
    with trace_session(args.trace, meta=meta) as session:
        status = dispatch()
    # Stdout stays bit-identical with and without --trace; the notice
    # goes to stderr like the progress line.
    print(f"wrote trace manifest {session.path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
