"""Theorem 6: the stabilized rotor-router visits every node each Θ(n/k).

For k in O(n^(1/6)) the k-agent rotor-router on the ring, *however
initialized*, stabilizes so that every node is visited at least once
every Θ(n/k) rounds.  The reproduction finds the exact limit cycle
(Brent) for a battery of initializations and reports the worst and
best per-node visit gaps, normalized by n/k; Theorem 6 predicts the
normalized values live in a constant band (about [1, 2] empirically —
an agent patrolling a domain of length n/k returns after ~2·n/k).

The random-walk contrast (no deterministic ceiling; expected gap n/k
with heavy tails) is reported by the Table 1 module.

The initialization battery is declared once and its limit-cycle cells
run through the batched pipeline of one
:class:`repro.analysis.backend.MeasurementPlan`.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.backend import MeasurementPlan
from repro.core import placement, pointers
from repro.experiments.harness import Report
from repro.util.rng import derive_seed
from repro.util.tables import Table

#: ``--quick`` keyword overrides of each runner, in report order.
QUICK = {
    "run_theorem6": {"n": 128, "ks": (2, 4, 8), "seeds": (0, 1)},
}


def battery_instances(
    n: int, k: int, seeds: Sequence[int]
) -> dict[str, tuple[list[int], list[int]]]:
    """Named ``(agents, directions)`` initializations of the battery."""
    one = placement.all_on_one(k)
    spaced = placement.equally_spaced(n, k)
    instances = {
        "all-on-one/toward": (one, pointers.ring_toward_node(n, 0)),
        "spaced/negative": (spaced, pointers.ring_negative(n, spaced)),
        "spaced/positive": (spaced, pointers.ring_positive(n, spaced)),
    }
    for seed in seeds:
        instances[f"random/seed{seed}"] = (
            placement.random_nodes(
                n, k, seed=derive_seed(seed, "t6-place", n, k)
            ),
            pointers.ring_random(n, seed=derive_seed(seed, "t6-ptr", n, k)),
        )
    return instances


def run_theorem6(
    plan: MeasurementPlan,
    n: int = 256,
    ks: Sequence[int] = (2, 4, 8, 16),
    seeds: Sequence[int] = (0, 1, 2),
) -> Report:
    report = Report(
        title="Theorem 6: return time Θ(n/k) regardless of initialization",
        claim=(
            "after stabilization every node is visited once every Θ(n/k) "
            "rounds, for k in O(n^(1/6))"
        ),
    )
    scheduled = [
        (
            k,
            [
                (name, plan.rotor_return_exact(n, agents, directions))
                for name, (agents, directions) in battery_instances(
                    n, k, seeds
                ).items()
            ],
        )
        for k in ks
    ]
    report.stats = plan.execute()

    table = Table(
        columns=[
            "k",
            "init",
            "preperiod",
            "period",
            "worst gap",
            "gap*k/n",
        ],
        caption=f"Exact limit-cycle return times on the n={n} ring",
        formats=["d", None, "d", "d", ".0f", ".2f"],
    )
    normalized: list[float] = []
    for k, cells in scheduled:
        for name, handle in cells:
            result = handle.value
            normalized.append(result.normalized)
            table.add_row(
                k,
                name,
                result.preperiod,
                result.period,
                result.worst_gap,
                result.normalized,
            )
    report.add_table(table)
    report.add_note(
        f"normalized gaps span [{min(normalized):.2f}, "
        f"{max(normalized):.2f}] — a constant band around 2, "
        "independent of n, k and the initialization"
    )
    return report
