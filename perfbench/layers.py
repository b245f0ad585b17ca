"""Per-layer timing for the traced run, measured from outside the package.

:class:`Instruments` wraps public functions and methods of each layer
(module) with a timer.  A timer records into the ambient
:mod:`repro.obs` telemetry as two counters, ``bench.<layer>.ns`` and
``bench.<layer>.calls``, so calls that run inside executor chunks — in
worker processes too — reach the trace manifest through the shards
``repro.obs`` already writes.  Time spent in a layer entered while no
other layer is open, in the driving process, also adds to
``bench.top.ns``; a workload's ``unattributed_s`` is its traced time
minus that.

:func:`layer_metrics` turns a loaded manifest into the benchmark's
per-layer metrics, combining these timers with the spans and counters
the package records itself (``cache.get``, ``cache.put``,
``aggregate``, ``chunk[*]/compute``, ``plan.*``, ``executor.*``,
``ring.*``, ``limit.*``, ``gaps.*``, ``walk.*``, ``general.*``).

Nothing here changes what any wrapped call computes: the traced run
checks that its output digests equal the untraced run's.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import time
from functools import cached_property

#: The experiments of ``repro.cli.EXPERIMENTS``, one layer each.
EXPERIMENT_NAMES = (
    "table1", "theorem1", "theorem2", "theorem3", "theorem4", "theorem5",
    "theorem6", "figures", "continuous", "speedup_graphs", "stabilization",
)

#: Kernel layers: (name, counter prefix, work counter, rate metric).
#: ``general`` counts occupied pairs; ``limit`` has no lane-round
#: counter, so it reports lanes per second.
KERNELS = (
    ("ring", "ring", "lane_rounds", "mlr_per_s"),
    ("limit", "limit", "lanes", "lanes_per_s"),
    ("gaps", "gaps", "lane_rounds", "mlr_per_s"),
    ("walk", "walk", "lane_rounds", "mlr_per_s"),
    ("general", "general", "pair_rounds", "mlr_per_s"),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = ["import.s", "import.theory_ode_s"]
    names += [f"experiments.{name}.s" for name in EXPERIMENT_NAMES]
    names += [
        "experiments.render_s",
        "backend.schedule_s", "backend.execute_s", "backend.cells",
        "domains.census_s", "domains.trace_s", "domains.snapshots",
        "domains.us_per_snapshot",
        "continuous.simulate_s", "ode.integrate_s",
        "deployments.s",
        "spec.expand_s", "cells.hash_s", "cells.hash_us_per_cell",
        "store.put_s", "store.put_cells", "store.put_us_per_cell",
        "store.lookup_s", "store.lookup_cells", "store.lookup_us_per_cell",
        "store.hit_ratio", "store.disk_bytes",
        "executor.run_cells_s", "executor.overhead_s", "executor.chunks",
        "executor.serial_cells", "executor.retries", "executor.quarantined",
        "dispatch.wait_s", "dispatch.worker_busy_ratio", "dispatch.shm_bytes",
    ]
    for name, _, work, rate in KERNELS:
        names += [f"kernel.{name}.s", f"kernel.{name}.{work}",
                  f"kernel.{name}.{rate}"]
    names += ["wall_s", "obs.overhead_ratio", "host.calib_s",
              "unattributed_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("mlr_per_s"):
        return "Mlr/s"
    if name.endswith("lanes_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_snapshot") or name.endswith("us_per_cell"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Instruments:
    """Timers around the public entry points of every layer."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._depth = 0
        self._open: set[str] = set()

    def _timed(self, layer: str, fn):
        from repro import obs

        ns_name = f"bench.{layer}.ns"
        calls_name = f"bench.{layer}.calls"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if obs.active() is None or layer in self._open:
                return fn(*args, **kwargs)
            top = self._depth == 0 and os.getpid() == self._pid
            self._open.add(layer)
            self._depth += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._depth -= 1
                self._open.discard(layer)
                counters = {ns_name: elapsed, calls_name: 1}
                if top:
                    counters["bench.top.ns"] = elapsed
                obs.count_many(counters)

        return timed

    def function(self, layer: str, module: str, name: str) -> None:
        """Wrap a module function at every ``repro`` binding of it."""
        original = getattr(sys.modules[module], name)
        wrapped = self._timed(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def method(self, layer: str, cls: type, name: str) -> None:
        original = cls.__dict__[name]
        if isinstance(original, cached_property):
            prop = cached_property(self._timed(layer, original.func))
            prop.__set_name__(cls, name)
            setattr(cls, name, prop)
        else:
            setattr(cls, name, self._timed(layer, original))

    def install(self) -> None:
        """Wrap the entry points of every layer whose module is loaded.

        Nothing is imported here: the traced iteration must import
        exactly what the untraced one does (see :data:`SETUP_IMPORTS`).
        """
        loaded = sys.modules.get
        cli = loaded("repro.cli")
        for name in EXPERIMENT_NAMES if cli is not None else ():
            module = loaded(cli.EXPERIMENTS[name][0])
            for runner in _RUNNERS.get(name, (f"run_{name}",)):
                if module is not None:
                    setattr(module, runner, self._timed(
                        f"experiments.{name}", getattr(module, runner)
                    ))
        for layer, module, owner, names in _METHODS:
            if loaded(module) is not None:
                for name in names:
                    self.method(layer, getattr(loaded(module), owner), name)
        for layer, module, name in _FUNCTIONS:
            if loaded(module) is not None:
                self.function(layer, module, name)
        continuous = loaded("repro.experiments.continuous")
        if continuous is not None:
            # The discrete half of the continuous experiment, as it sees it.
            for name in ("trace_domains", "final_profile_vs_lemma13"):
                setattr(continuous, name, self._timed(
                    "continuous.simulate", getattr(continuous, name)
                ))


#: Modules every iteration imports during set-up, traced or not, so
#: that the wrappers find them loaded and both runs import the same.
SETUP_IMPORTS = ("repro.sweep.executor", "repro.sweep.batch_general")

_RUNNERS = {"figures": ("run_figure1", "run_figure2")}

#: (layer, module, class, methods) wrapped by :meth:`Instruments.install`.
_METHODS = (
    ("experiments.render", "repro.experiments.harness", "Report",
     ("render",)),
    ("backend.schedule", "repro.analysis.backend", "MeasurementPlan",
     ("rotor_cover", "rotor_return_exact", "walk_cover", "walk_gaps",
      "rotor_cover_general")),
    ("backend.execute", "repro.analysis.backend", "MeasurementPlan",
     ("execute",)),
    ("spec.expand", "repro.sweep.spec", "ScenarioSpec", ("configs",)),
    ("spec.expand", "repro.sweep.spec", "GeneralScenarioSpec", ("configs",)),
    ("cells.hash", "repro.sweep.spec", "SweepConfig", ("config_hash",)),
    ("cells.hash", "repro.sweep.cells", "RotorCell", ("config_hash",)),
    ("cells.hash", "repro.sweep.cells", "WalkCoverCell", ("config_hash",)),
    ("cells.hash", "repro.sweep.cells", "WalkGapsCell", ("config_hash",)),
    ("cells.hash", "repro.sweep.cells", "GeneralRotorCell", ("config_hash",)),
    ("kernel.ring", "repro.sweep.batch_ring", "BatchRingKernel",
     ("run_until_covered",)),
    ("kernel.walk", "repro.sweep.batch_walk", "BatchRingWalks",
     ("run_until_covered",)),
    ("kernel.general", "repro.sweep.batch_general", "BatchGeneralKernel",
     ("run_until_covered",)),
)

#: (layer, module, function) wrapped at every binding in the package.
_FUNCTIONS = (
    ("domains.snapshot", "repro.core.domains", "domain_snapshot"),
    ("domains.census", "repro.analysis.domains_stats", "border_type_census"),
    ("domains.trace", "repro.analysis.domains_stats", "trace_domains"),
    ("ode.integrate", "repro.theory.ode", "integrate_domains"),
    ("ode.integrate", "repro.theory.ode", "equilibrium_check"),
    ("deployments", "repro.experiments.deployments",
     "run_theorem1_deployment"),
    ("executor.run_cells", "repro.sweep.executor", "run_cells"),
    ("kernel.limit", "repro.sweep.batch_ring", "batch_limit_cycles"),
    ("kernel.gaps", "repro.sweep.batch_ring", "batch_return_gaps"),
)


def layer_metrics(
    manifest: dict,
    traced_s: float,
    jobs: int,
    disk_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its manifest.

    ``traced_s`` is the wall time the trace covered, ``jobs`` the
    workload's worker count and ``disk_bytes`` the size of its cache
    directory afterwards.  ``import.s``, ``import.theory_ode_s``,
    ``obs.overhead_ratio`` and ``host.calib_s`` come from the driver.
    """
    counters = manifest["counters"]
    main_pid = str(os.getpid())
    main_workers = {
        w["worker"] for w in manifest["workers"] if w["pid"] == main_pid
    }

    def seconds(layer: str) -> float:
        return counters.get(f"bench.{layer}.ns", 0) / 1e9

    def calls(layer: str) -> int:
        return counters.get(f"bench.{layer}.calls", 0)

    def span_s(leaf: str, in_process: bool = False) -> float:
        return sum(
            span["wall"]
            for span in manifest["spans"]
            if span["name"].rsplit("/", 1)[-1] == leaf
            and (not in_process or span["worker"] in main_workers
                 or span["worker"] == "main")
        )

    def per(value: float, count: float, scale: float = 1.0) -> float:
        return value / count * scale if count else 0.0

    out: dict[str, float] = {}
    for name in EXPERIMENT_NAMES:
        out[f"experiments.{name}.s"] = seconds(f"experiments.{name}")
    out["experiments.render_s"] = seconds("experiments.render")
    out["backend.schedule_s"] = seconds("backend.schedule")
    out["backend.execute_s"] = seconds("backend.execute")
    out["backend.cells"] = counters.get("plan.cells", 0)
    out["domains.census_s"] = seconds("domains.census")
    out["domains.trace_s"] = seconds("domains.trace")
    out["domains.snapshots"] = calls("domains.snapshot")
    out["domains.us_per_snapshot"] = per(
        seconds("domains.snapshot"), calls("domains.snapshot"), 1e6
    )
    out["continuous.simulate_s"] = seconds("continuous.simulate")
    out["ode.integrate_s"] = seconds("ode.integrate")
    out["deployments.s"] = seconds("deployments")
    out["spec.expand_s"] = seconds("spec.expand")
    out["cells.hash_s"] = seconds("cells.hash")
    out["cells.hash_us_per_cell"] = per(
        seconds("cells.hash"), calls("cells.hash"), 1e6
    )

    lookup_s = span_s("cache.get")
    put_s = span_s("cache.put")
    lookups = counters.get("cache.batch_size", 0)
    puts = counters.get("cache.puts", 0)
    out["store.put_s"] = put_s
    out["store.put_cells"] = puts
    out["store.put_us_per_cell"] = per(put_s, puts, 1e6)
    out["store.lookup_s"] = lookup_s
    out["store.lookup_cells"] = lookups
    out["store.lookup_us_per_cell"] = per(lookup_s, lookups, 1e6)
    out["store.hit_ratio"] = per(counters.get("cache.hits", 0), lookups)
    out["store.disk_bytes"] = disk_bytes

    # run_cells = lookup + put + in-process compute + dispatch wait
    # + overhead (planning, dedup, shared-memory packing, bookkeeping).
    run_cells_s = seconds("executor.run_cells")
    in_process_compute = span_s("compute", in_process=True)
    wait_s = (
        max(0.0, span_s("aggregate") - put_s - in_process_compute)
        if jobs > 1 else 0.0
    )
    out["executor.run_cells_s"] = run_cells_s
    out["executor.overhead_s"] = (
        run_cells_s - lookup_s - put_s - in_process_compute - wait_s
    )
    out["executor.chunks"] = counters.get("executor.chunks", 0)
    out["executor.serial_cells"] = counters.get(
        "ring.serial_cells", 0
    ) + counters.get("general.serial_cells", 0)
    out["executor.retries"] = counters.get("executor.retries", 0)
    out["executor.quarantined"] = counters.get(
        "executor.quarantined_cells", 0
    )
    worker_busy = sum(
        w["wall"] for w in manifest["workers"] if w["pid"] != main_pid
    )
    out["dispatch.wait_s"] = wait_s
    out["dispatch.worker_busy_ratio"] = (
        per(worker_busy, jobs * span_s("aggregate")) if jobs > 1 else 0.0
    )
    out["dispatch.shm_bytes"] = counters.get("executor.shm_bytes", 0)

    for name, prefix, work, rate in KERNELS:
        kernel_s = seconds(f"kernel.{name}")
        done = counters.get(f"{prefix}.{work}", 0)
        out[f"kernel.{name}.s"] = kernel_s
        out[f"kernel.{name}.{work}"] = done
        scale = 1e-6 if rate == "mlr_per_s" else 1.0
        out[f"kernel.{name}.{rate}"] = per(done * scale, kernel_s)
    out["unattributed_s"] = traced_s - counters.get("bench.top.ns", 0) / 1e9
    return out


def calibrate() -> float:
    """A fixed pure-Python, numpy and dict-walking loop, timed.

    No change to the package can move it, so it shows how fast the
    host was during a run: on a shared host a core's speed drifts by
    tens of percent over minutes.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i & 7
    values = np.arange(200_000, dtype=np.int64)
    for _ in range(10):
        values = (values * 3 + 1) % 1_000_003
    order = list(range(1 << 17))
    random.Random(1).shuffle(order)
    successor = dict(zip(order, order[1:] + order[:1]))
    node = order[0]
    for _ in range(200_000):
        node = successor[node]
    return time.perf_counter() - start
