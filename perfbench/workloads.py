"""The benchmark's workloads, driven through the package's public API.

Every workload has four steps:

* ``setup`` — imports and input generation (counted in ``setup_s``);
* ``cold`` — the timed work behind ``cpu_s``, into a fresh result
  cache (the default JSON store, given as a plain path, except for
  ``grid_churn``);
* ``warm`` — the workload's cacheable work again, over the cache the
  cold pass filled (``warm_cpu_s``);
* ``check`` — output checks that need more than a digest.

A pass returns a :class:`Pass`: how many cells it delivered (computed
plus cached), how many of them it computed, how many were quarantined,
and one digest per report.  ``reproduce_quick`` digests each
experiment's rendered report text; the sweeps digest sorted
``(config_hash, metrics)`` pairs.

Workloads:

* ``reproduce_quick`` — ``repro run NAME --quick`` for every experiment
  of ``repro all``, in its order, with ``jobs=1``: what CI and new
  users run.  Its time is mostly the serial domain tracing of
  ``figures`` and ``continuous`` plus imports.  Seed-independent.
* ``sweep_cold`` — the registered scenarios ``table1_full``,
  ``speedup``, ``cover_scaling``, ``stabilization`` and
  ``general_speedup`` at full size, in that order, with ``jobs=2``
  into one cache.  Every kernel, the serial fallbacks, dispatch,
  shared memory and cross-scenario cache sharing run here.
  Seed-independent.
* ``grid_churn`` — a wide grid of 10,000 cheap cells generated from
  the seed (n in {64, 128}, k in {1, 2, 4, 8, 16}, random and
  clustered placements with random pointers, 500 seeds each), cold
  then warm with ``jobs=1``, in the SQLite store.
  Per-cell costs dominate: identity hashing, planning, store writes
  and batched store reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field

#: Cold-pass report order of ``sweep_cold``: ``speedup`` reuses cells
#: of ``table1_full``, so the order is part of the workload.
SWEEP_SCENARIOS = (
    "table1_full",
    "speedup",
    "cover_scaling",
    "stabilization",
    "general_speedup",
)

#: Experiments ``reproduce_quick`` runs at smoke size (the self-test).
SMOKE_EXPERIMENTS = ("table1", "theorem3", "speedup_graphs")

#: Seeds per initialization family in ``grid_churn``: 2 ring sizes x
#: 5 agent counts x 2 families x this = the cell count.
GRID_SEEDS = {"full": 500, "smoke": 5}

#: Cells of ``grid_churn`` re-run on the reference serial engines.
REFERENCE_SAMPLE = {"full": 8, "smoke": 2}

_ACCOUNTING = re.compile(
    r"^backend=\S+ computed=(\d+) cached=(\d+) elapsed=\S+$"
)
_QUARANTINED = re.compile(r"quarantined (\d+) cell")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one cold or warm pass delivered."""

    cells: int = 0
    computed: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    #: ``config_hash -> metrics`` of sweep cells, for further checks.
    metrics: dict[str, dict] = field(default_factory=dict)


class ReproduceQuick:
    """Every experiment of ``repro.cli.EXPERIMENTS`` at ``--quick``."""

    name = "reproduce_quick"
    jobs = 1

    def setup(self, seed: int, size: str, cache_dir: str) -> None:
        from repro import cli

        self.cli = cli
        self.cache_dir = cache_dir
        # The import chain `repro all` walks, paid here like a user pays
        # it before the first report.
        for module_name, _ in cli.EXPERIMENTS.values():
            importlib.import_module(module_name)
        self.names = (
            list(cli.EXPERIMENTS) if size == "full" else list(SMOKE_EXPERIMENTS)
        )
        self.cached_names: list[str] = []

    def _report(self, name: str) -> tuple[str, int]:
        """``repro run NAME --quick``: its stdout, and quarantined cells.

        A measurement plan refuses to finish with quarantined cells, so
        such a report has no text; the count comes from the refusal.
        """
        argv = ["run", name, "--quick", "--cache", self.cache_dir]
        out = io.StringIO()
        try:
            # Notes ("has no measurement grid") go to stderr; keep it quiet.
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                io.StringIO()
            ):
                status = self.cli.main(argv)
        except RuntimeError as exc:
            quarantined = _QUARANTINED.search(str(exc))
            if quarantined is None:
                raise
            return "", int(quarantined.group(1))
        if status != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {status}")
        return out.getvalue(), 0

    def _pass(self, names: list[str]) -> Pass:
        result = Pass()
        for name in names:
            body, failed = self._report(name)
            result.cells += failed
            result.failed += failed
            kept = []
            for line in body.splitlines():
                match = _ACCOUNTING.match(line)
                if match is None:
                    kept.append(line)
                    continue
                computed, cached = (int(group) for group in match.groups())
                result.cells += computed + cached
                result.computed += computed
                if name not in self.cached_names:
                    self.cached_names.append(name)
            # The accounting line carries a wall time; everything else
            # of a report is a pure function of the code.
            result.digests[name] = digest("\n".join(kept).strip())
        return result

    def cold(self) -> Pass:
        self.cached_names = []
        return self._pass(self.names)

    def warm(self) -> Pass:
        # Only experiments with a measurement grid read the cache;
        # re-running figures/continuous would just repeat the cold pass.
        return self._pass(list(self.cached_names))

    def check(self, cold: Pass) -> list[str]:
        return []

    def reports(self) -> int:
        return len(self.names)


def _sweep_digest(result) -> str:
    pairs = sorted(
        (r.config.config_hash, r.metrics) for r in result.results
    )
    return digest(json.dumps(pairs, sort_keys=True))


class _Sweeps:
    """Shared cold/warm logic of the two sweep workloads."""

    name = ""
    jobs = 1

    def _specs(self, seed: int, size: str) -> list:
        raise NotImplementedError

    def setup(self, seed: int, size: str, cache_dir: str) -> None:
        from repro.sweep.executor import run_sweep

        self.run_sweep = run_sweep
        self.cache_dir = cache_dir
        self.size = size
        self.seed = seed
        self.specs = self._specs(seed, size)

    def _pass(self) -> Pass:
        result = Pass()
        for spec in self.specs:
            sweep = self.run_sweep(
                spec, jobs=self.jobs, cache_dir=self.cache_dir
            )
            result.cells += len(sweep.results)
            result.computed += sweep.cache_misses
            result.failed += sweep.failed
            result.digests[spec.name] = _sweep_digest(sweep)
            for r in sweep.results:
                result.metrics[r.config.config_hash] = r.metrics
        return result

    def cold(self) -> Pass:
        return self._pass()

    def warm(self) -> Pass:
        return self._pass()

    def check(self, cold: Pass) -> list[str]:
        return []

    def reports(self) -> int:
        return len(self.specs)


class SweepCold(_Sweeps):
    """The registered scenarios at full size, ``jobs=2``, one cache."""

    name = "sweep_cold"
    jobs = 2

    def _specs(self, seed: int, size: str) -> list:
        from repro.sweep import registry

        return [
            registry.scenario(name, quick=size != "full")
            for name in SWEEP_SCENARIOS
        ]


class GridChurn(_Sweeps):
    """A wide, cheap grid generated from the seed, ``jobs=1``.

    Its cache is the SQLite store: thousands of JSON files written and
    deleted per iteration made each file create cost 0.02-0.5 ms of
    system time, by how recently the file system had freed blocks.
    """

    name = "grid_churn"
    jobs = 1

    def setup(self, seed: int, size: str, cache_dir: str) -> None:
        super().setup(seed, size, "sqlite://" + cache_dir)

    def _specs(self, seed: int, size: str) -> list:
        from repro.sweep.spec import InitFamily, ScenarioSpec

        rng = random.Random(seed)
        seeds = tuple(sorted(rng.sample(range(1_000_000), GRID_SEEDS[size])))
        return [
            ScenarioSpec(
                name="grid_churn",
                ns=(64, 128),
                ks=(1, 2, 4, 8, 16),
                families=(
                    InitFamily("random", "random"),
                    InitFamily("clustered", "random"),
                ),
                metrics=("cover",),
                seeds=seeds,
            )
        ]

    def check(self, cold: Pass) -> list[str]:
        """A seeded sample of cells against the reference serial engine."""
        from repro.analysis.backend import MeasurementPlan

        configs = self.specs[0].configs()
        sample = random.Random(self.seed + 1).sample(
            configs, REFERENCE_SAMPLE[self.size]
        )
        plan = MeasurementPlan(backend="reference")
        handles = []
        for config in sample:
            agents, directions = config.build()
            handles.append(
                plan.rotor_cover(
                    config.n, agents, directions, max_rounds=config.max_rounds
                )
            )
        plan.execute()
        problems = []
        for config, handle in zip(sample, handles):
            got = cold.metrics.get(config.config_hash, {}).get("cover")
            if got != handle.value:
                problems.append(
                    f"cell {config.config_hash[:12]}: cover {got} != "
                    f"reference {handle.value}"
                )
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (ReproduceQuick, SweepCold, GridChurn)
}


def cache_bytes(directory: str) -> int:
    """Bytes of every file under a cache directory."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
