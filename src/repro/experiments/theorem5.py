"""Theorem 5: k equally spaced random walks cover in Θ((n/k)² log²k).

Both directions of the theorem are exercised:

* Lemma 16 (upper bound): the measured mean cover time, normalized by
  (n/k)² log² k, stays flat and bounded as k grows;
* Lemma 17/18 (lower bound): the cover time stays *above* a constant
  times (n/k)² log² k — equivalently, k walks are slower than the
  k-agent rotor-router from the same placement by about log² k, the
  paper's punchline for the best-case comparison.

Walk cells (repetition lanes) and rotor cells share one batched
:class:`repro.analysis.backend.MeasurementPlan` execution.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.backend import MeasurementPlan
from repro.core import placement, pointers
from repro.experiments.harness import Report
from repro.theory import bounds
from repro.util.rng import derive_seed
from repro.util.tables import Table

#: ``--quick`` keyword overrides of each runner, in report order.
QUICK = {
    "run_theorem5": {"n": 256, "ks": (2, 4, 8), "repetitions": 5},
}


def run_theorem5(
    plan: MeasurementPlan,
    n: int = 1024,
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    repetitions: int = 20,
    seed: int = 0,
) -> Report:
    report = Report(
        title="Theorem 5: equally spaced k random walks cover in "
        "Θ((n/k)² log² k)",
        claim=(
            "best-case placement for k walks is equal spacing; its cover "
            "time carries a log²k penalty over the rotor-router's (n/k)²"
        ),
    )
    scheduled = []
    for k in ks:
        agents = placement.equally_spaced(n, k)
        scheduled.append(
            (
                k,
                plan.walk_cover(
                    n,
                    agents,
                    repetitions,
                    base_seed=derive_seed(seed, "t5", n, k),
                ),
                plan.rotor_cover(n, agents, pointers.ring_negative(n, agents)),
            )
        )
    report.stats = plan.execute()

    table = Table(
        columns=[
            "k",
            "RW mean cover",
            "95% CI",
            "/(n/k)^2 log^2 k",
            "RR cover",
            "RW/RR",
            "log^2 k",
        ],
        caption=f"Equally spaced walks vs rotor-router on the n={n} ring "
        f"({repetitions} repetitions)",
        formats=["d", ".0f", None, ".3f", "d", ".2f", ".2f"],
    )
    for k, walk_handle, rotor_handle in scheduled:
        estimate = walk_handle.value
        mean, low, high = estimate.mean, estimate.ci_low, estimate.ci_high
        rotor = rotor_handle.value
        table.add_row(
            k,
            mean,
            f"[{low:.0f}, {high:.0f}]",
            mean / bounds.walk_cover_best(n, k),
            rotor,
            mean / rotor,
            math.log(k) ** 2 if k > 1 else 1.0,
        )
    report.add_table(table)
    report.add_note(
        "the RW/RR column should track log²k: the deterministic system "
        "wins the best-case comparison by exactly the polylog factor"
    )
    return report
