"""Theorem 1: worst-case placement covers in Θ(n²/log k).

Two reproductions:

1. **Direct measurement** — all k agents on node 0, pointers along the
   shortest path toward it; sweep k for fixed n (and n for fixed k) and
   verify the normalized column ``C · log k / n²`` is flat, i.e. both
   the Θ(n²) growth in n and the 1/log k speed-up in k hold.
2. **The proof's deployment** — run the Phase A/B1/B2 construction of
   :mod:`repro.experiments.deployments` and verify the Lemma 3 sandwich
   ``tau <= C(R[k]) <= T`` on the actual undelayed system.

The k- and n-sweeps schedule their cover cells declaratively on one
:class:`repro.analysis.backend.MeasurementPlan` (the batched kernels
step all lanes together); the deployment sandwich replays the proof's
delayed construction, which is a trace study rather than a grid, and
stays serial.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.analysis.backend import MeasurementPlan
from repro.analysis.scaling import fit_power_law
from repro.core import placement, pointers
from repro.experiments.deployments import (
    run_theorem1_deployment,
    undelayed_path_cover_time,
)
from repro.experiments.harness import Report
from repro.theory import bounds
from repro.util.tables import Table

__all__ = [
    "run_deployment_sandwich",
    "run_theorem1",
]

#: ``--quick`` keyword overrides of each runner, in report order.
QUICK = {
    "run_theorem1": {
        "n": 256,
        "ks": (2, 4, 8, 16),
        "ns": (64, 128, 256),
        "sweep_k": 4,
        "deployment_cases": ((120, 4),),
    },
}


def _worst_cover_handle(plan: MeasurementPlan, n: int, k: int):
    """Schedule the Theorem 1 worst-case cell (all-on-one, toward 0)."""
    return plan.rotor_cover(
        n, placement.all_on_one(k), pointers.ring_toward_node(n, 0)
    )


def plan_k_sweep(
    plan: MeasurementPlan, n: int, ks: Sequence[int]
) -> Callable[[], Table]:
    """Fixed n, sweep k: check C * log k / n² flat."""
    baseline = _worst_cover_handle(plan, n, 1)
    handles = [(k, _worst_cover_handle(plan, n, k)) for k in ks]

    def build() -> Table:
        table = Table(
            columns=[
                "k", "cover C", "C/n^2", "C*log k/n^2", "speedup C(1)/C(k)",
            ],
            caption=f"Theorem 1 k-sweep on the n={n} ring (all-on-one start)",
            formats=["d", "d", ".4f", ".4f", ".2f"],
        )
        for k, handle in handles:
            cover = handle.value
            table.add_row(
                k,
                cover,
                cover / (n * n),
                cover / bounds.rotor_cover_worst(n, k),
                baseline.value / cover,
            )
        return table

    return build


def plan_n_sweep(
    plan: MeasurementPlan, ns: Sequence[int], k: int
) -> Callable[[], Table]:
    """Fixed k, sweep n: the exponent of C vs n should be ~2."""
    handles = [(n, _worst_cover_handle(plan, n, k)) for n in ns]

    def build() -> Table:
        table = Table(
            columns=["n", "cover C", "C*log k/n^2"],
            caption=f"Theorem 1 n-sweep with k={k} agents (all-on-one start)",
            formats=["d", "d", ".4f"],
        )
        covers = []
        for n, handle in handles:
            cover = handle.value
            covers.append(cover)
            table.add_row(n, cover, cover / bounds.rotor_cover_worst(n, k))
        fit = fit_power_law(list(ns), covers)
        table.caption += f" | fitted exponent n^{fit.exponent:.3f}"
        return table

    return build


def run_deployment_sandwich(cases: Sequence[tuple[int, int]]) -> Table:
    """Execute the proof's delayed deployment; verify Lemma 3 bounds."""
    table = Table(
        columns=[
            "path n", "k", "tau (B1)", "T (total)", "C undelayed",
            "tau<=C<=T", "B1*log k/n^2",
        ],
        caption="Theorem 1 proof deployment (path, Phase A/B1/B2) "
        "with the Lemma 3 sandwich",
        formats=["d", "d", "d", "d", "d", None, ".3f"],
    )
    for n, k in cases:
        trace = run_theorem1_deployment(n, k)
        tau, total = trace.slow_down_bounds()
        cover = undelayed_path_cover_time(n, k)
        table.add_row(
            n,
            k,
            tau,
            total,
            cover,
            "yes" if tau <= cover <= total else "NO",
            tau * math.log(k) / (n * n),
        )
    return table


def run_theorem1(
    plan: MeasurementPlan,
    n: int = 1024,
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64),
    ns: Sequence[int] = (128, 256, 512, 1024),
    sweep_k: int = 8,
    deployment_cases: Sequence[tuple[int, int]] = ((300, 6), (500, 8)),
) -> Report:
    report = Report(
        title="Theorem 1: worst-case placement cover time Θ(n²/log k)",
        claim=(
            "k agents on one node, pointers toward it: cover time "
            "Θ(n²/log k) for k < n^(1/11)"
        ),
    )
    build_ks = plan_k_sweep(plan, n, ks)
    build_ns = plan_n_sweep(plan, ns, sweep_k)
    report.stats = plan.execute()
    report.add_table(build_ks())
    report.add_table(build_ns())
    report.add_table(run_deployment_sandwich(deployment_cases))
    return report
