"""Table 1 reproduction: cover and return times of both models.

Paper's Table 1 (for k < n^(1/11)):

    model            cover (worst)     cover (best)        return time
    rotor-router     Θ(n²/log k)       Θ(n²/k²)            Θ(n/k)
    k random walks   Θ(n²/log k)       Θ(n²/(k²/log²k))    Θ(n/k)

The reproduction fixes n, sweeps k, and reports measured values next to
the normalized columns (measured / predicted shape); a flat normalized
column across k confirms the Θ-shape.  Orderings to check: the worst
placement is log-k-slow for both models; the rotor-router's best
placement beats the random walks' by the log²k factor; return times
match at n/k.

The grids are built declaratively against a
:class:`repro.analysis.backend.MeasurementPlan`: each ``plan_*``
function schedules every cell of one table and returns a closure that
scatters the measured values into the rendered rows once the plan has
executed, so one batched execution serves all tables of the report.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.backend import MeasurementPlan
from repro.core import placement, pointers
from repro.experiments.harness import Report
from repro.theory import bounds
from repro.util.rng import derive_seed
from repro.util.tables import Table

#: ``--quick`` keyword overrides of each runner, in report order.
QUICK = {
    "run_table1": {
        "n": 128, "ks": (2, 4, 8), "repetitions": 3, "return_n": 64,
    },
}


def plan_cover_table(
    plan: MeasurementPlan,
    n: int,
    ks: Sequence[int],
    repetitions: int = 10,
    seed: int = 0,
) -> Callable[[], Table]:
    """Schedule the four cover-time columns; returns the table builder.

    Worst: all agents on node 0, pointers toward it.  Best: equally
    spaced agents, adversarial (negative) pointers.
    """
    toward0 = pointers.ring_toward_node(n, 0)
    rows = []
    for k in ks:
        spaced = placement.equally_spaced(n, k)
        rows.append(
            (
                k,
                plan.rotor_cover(n, placement.all_on_one(k), toward0),
                plan.rotor_cover(n, spaced, pointers.ring_negative(n, spaced)),
                plan.walk_cover(
                    n,
                    placement.all_on_one(k),
                    repetitions,
                    base_seed=derive_seed(seed, "t1-walk-worst", n, k),
                ),
                plan.walk_cover(
                    n,
                    spaced,
                    repetitions,
                    base_seed=derive_seed(seed, "t1-walk-best", n, k),
                ),
            )
        )

    def build() -> Table:
        table = Table(
            columns=[
                "k",
                "RR worst",
                "/ (n^2/log k)",
                "RR best",
                "/ (n^2/k^2)",
                "RW worst",
                "/ (n^2/log k)",
                "RW best",
                "/ ((n/k)^2 log^2 k)",
            ],
            caption=f"Table 1 cover times on the n={n} ring",
            formats=[
                "d", ".0f", ".3f", ".0f", ".3f", ".0f", ".3f", ".0f", ".3f",
            ],
        )
        for k, rr_worst, rr_best, rw_worst, rw_best in rows:
            table.add_row(
                k,
                rr_worst.value,
                rr_worst.value / bounds.rotor_cover_worst(n, k),
                rr_best.value,
                rr_best.value / bounds.rotor_cover_best(n, k),
                rw_worst.value.mean,
                rw_worst.value.mean / bounds.walk_cover_worst(n, k),
                rw_best.value.mean,
                rw_best.value.mean / bounds.walk_cover_best(n, k),
            )
        return table

    return build


def plan_return_time_table(
    plan: MeasurementPlan,
    n: int,
    ks: Sequence[int],
    walk_window_factor: int = 400,
    seed: int = 0,
) -> Callable[[], Table]:
    """Schedule the return-time column; returns the table builder.

    The rotor-router value is the exact limit-cycle worst gap starting
    from the *worst* initialization (all-on-one, pointers toward it);
    Theorem 6 says it is Θ(n/k) regardless.  The random-walk column is
    the mean gap at a fixed node (expectation n/k) plus its observed
    maximum, illustrating the paper's point that the walk gives no
    deterministic ceiling.
    """
    toward0 = pointers.ring_toward_node(n, 0)
    rows = [
        (
            k,
            plan.rotor_return_exact(n, placement.all_on_one(k), toward0),
            plan.walk_gaps(
                n,
                k,
                node=0,
                observation_rounds=walk_window_factor * n,
                burn_in=4 * n,
                seed=derive_seed(seed, "t1-return", n, k),
            ),
        )
        for k in ks
    ]

    def build() -> Table:
        table = Table(
            columns=[
                "k",
                "RR worst gap",
                "RR gap*k/n",
                "RW mean gap",
                "RW mean*k/n",
                "RW max gap",
            ],
            caption=f"Table 1 return times on the n={n} ring",
            formats=["d", ".0f", ".2f", ".2f", ".2f", ".0f"],
        )
        for k, rotor, walk in rows:
            walk_stats = walk.value
            table.add_row(
                k,
                rotor.value.worst_gap,
                rotor.value.normalized,
                walk_stats.mean,
                walk_stats.mean * k / n,
                walk_stats.maximum,
            )
        return table

    return build


def run_table1(
    plan: MeasurementPlan,
    n: int = 512,
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    repetitions: int = 10,
    return_n: int | None = None,
    seed: int = 0,
) -> Report:
    """Full Table 1 reproduction (one measurement plan for the report)."""
    report = Report(
        title="Table 1: multi-agent rotor-router vs k random walks on the ring",
        claim=(
            "cover worst Θ(n²/log k) both models; cover best Θ(n²/k²) "
            "rotor vs Θ((n/k)²log²k) walks; return time Θ(n/k) both"
        ),
    )
    build_cover = plan_cover_table(plan, n, ks, repetitions, seed)
    build_return = plan_return_time_table(
        plan, return_n if return_n else min(n, 256), ks, seed=seed
    )
    report.stats = plan.execute()
    report.add_table(build_cover())
    report.add_table(build_return())
    report.add_note(
        "normalized columns ('/ shape') should be flat in k; absolute "
        "constants are not specified by the Θ-bounds"
    )
    return report
