"""Sweep orchestration: declarative scenarios over batched ring kernels.

The subsystem turns one-off experiment scripts into declarative,
cached, parallel parameter sweeps:

- :mod:`repro.sweep.spec` — the grid language
  (:class:`ScenarioSpec` -> :class:`SweepConfig` cells with
  deterministic hashes) including the rotor/walk model axis;
- :mod:`repro.sweep.batch_ring` — the vectorized ``(B, n)`` kernel
  stepping many independent ring configurations per numpy op, with
  per-lane cover/stabilization/return detection;
- :mod:`repro.sweep.batch_walk` — the vectorized random-walk kernel:
  walk cells fan out over seeded repetitions into ``(R·B)`` lanes with
  exact per-lane cover detection, seed-for-seed equal to the reference
  :class:`repro.randomwalk.ring_walk.RingRandomWalks`;
- :mod:`repro.sweep.batch_general` — the CSR-batched rotor-router
  kernel for arbitrary port-labeled graphs: sparse occupancy stepping
  over stacked CSR arrays, heterogeneous graphs per invocation, exact
  per-lane cover detection and a scalar tail finisher;
- :mod:`repro.sweep.cells` — explicit measurement cells (materialized
  agents/pointers/seeds rather than named families) that give the
  paper-reproduction experiments the same cached, batched execution
  path via :mod:`repro.analysis.backend`, plus the general-graph
  budget rule :func:`~repro.sweep.cells.general_cover_budget`;
- :mod:`repro.sweep.executor` — supervised multiprocessing execution
  with an on-disk result cache (``run_sweep`` for scenario grids,
  ``run_cells`` for explicit cell lists; a chunk's payload is its
  cell objects, pickled as-is at ``jobs > 1``): per-chunk deadlines
  (``chunk_timeout``), bounded retry (``max_retries``), poison-cell
  bisection/quarantine and serial degradation, all summarized in a
  :class:`FailureReport`;
- :mod:`repro.sweep.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan`);
- :mod:`repro.sweep.aggregate` — joins rotor and walk cells of one
  sweep into speed-up tables ``S(k) = C(n,1)/C(n,k)`` and
  rotor-vs-walk ratio tables;
- :mod:`repro.sweep.registry` — named scenarios behind
  ``python -m repro sweep <name>``.
"""

from repro.sweep.aggregate import (
    model_ratio_table,
    speedup_curves,
    speedup_table,
    summary_tables,
)
from repro.sweep.batch_ring import (
    BatchLimitCycles,
    BatchRingKernel,
    batch_limit_cycles,
    batch_return_gaps,
    lanes_from_configs,
)
from repro.sweep.batch_general import (
    BatchGeneralKernel,
    GeneralLane,
    batch_general_covers,
)
from repro.sweep.batch_walk import (
    BatchRingWalks,
    WalkLane,
    walk_lanes_from_cells,
)
from repro.sweep.cells import (
    GeneralRotorCell,
    LabeledGeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
)
from repro.sweep.executor import (
    ConfigResult,
    FailureReport,
    SweepResult,
    run_cells,
    run_sweep,
)
from repro.sweep.faults import FaultPlan
from repro.sweep.store import VerifyReport, verify_store
from repro.sweep.registry import scenario, scenario_names
from repro.sweep.spec import (
    GeneralScenarioSpec,
    InitFamily,
    ScenarioSpec,
    SweepConfig,
    general_instance,
)

__all__ = [
    "BatchGeneralKernel",
    "BatchLimitCycles",
    "BatchRingKernel",
    "BatchRingWalks",
    "GeneralLane",
    "WalkLane",
    "batch_general_covers",
    "batch_limit_cycles",
    "batch_return_gaps",
    "lanes_from_configs",
    "walk_lanes_from_cells",
    "ConfigResult",
    "FailureReport",
    "FaultPlan",
    "GeneralRotorCell",
    "LabeledGeneralRotorCell",
    "RotorCell",
    "SweepResult",
    "VerifyReport",
    "WalkCoverCell",
    "WalkGapsCell",
    "run_cells",
    "run_sweep",
    "verify_store",
    "model_ratio_table",
    "speedup_curves",
    "speedup_table",
    "summary_tables",
    "scenario",
    "scenario_names",
    "GeneralScenarioSpec",
    "InitFamily",
    "ScenarioSpec",
    "SweepConfig",
    "general_instance",
]
