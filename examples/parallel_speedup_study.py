#!/usr/bin/env python3
"""Speed-up study: what do k agents buy you, and where?

Reproduces the paper's headline comparison as one readable table: the
speed-up of k agents over one, for the rotor-router and for random
walks, under the best and worst placements — the four regimes of
Table 1 — plus the rotor-router on a torus (where, as in Yanovski et
al.'s experiments, the speed-up is nearly linear).

Every measurement schedules onto one batched
:class:`repro.analysis.backend.MeasurementPlan`: the ring cells pack
into the ring kernels, the torus cells into the CSR general-graph
kernel, and a single ``execute()`` runs the whole grid before any
table row is computed.  The ``computed=X cached=Y`` accounting line at
the end shows how much actually simulated.

Run:  python examples/parallel_speedup_study.py [n]
"""

import math
import sys

from repro.analysis.backend import MeasurementPlan
from repro.core import placement, pointers
from repro.graphs import torus_2d
from repro.util.rng import derive_seed
from repro.util.tables import Table


def schedule_rotor_worst(plan: MeasurementPlan, n: int, k: int):
    return plan.rotor_cover(
        n, placement.all_on_one(k), pointers.ring_toward_node(n, 0)
    )


def schedule_rotor_best(plan: MeasurementPlan, n: int, k: int):
    agents = placement.equally_spaced(n, k)
    return plan.rotor_cover(n, agents, pointers.ring_negative(n, agents))


def schedule_walk(plan: MeasurementPlan, n: int, k: int, spaced: bool,
                  repetitions: int = 8):
    agents = (
        placement.equally_spaced(n, k) if spaced else placement.all_on_one(k)
    )
    return plan.walk_cover(
        n, agents, repetitions, base_seed=derive_seed(0, "study", n, k, spaced)
    )


def schedule_torus(plan: MeasurementPlan, graph, side: int, k: int):
    # Historical derivation of the torus sample (seed stream 1).
    from repro.core.pointers import random_ports
    from repro.util.rng import make_rng

    rng = make_rng(derive_seed(1, "torus", side, k))
    agents = [int(rng.integers(0, graph.num_nodes)) for _ in range(k)]
    return plan.rotor_cover_general(graph, agents, random_ports(graph, rng))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    ks = [2, 4, 8, 16]
    side = max(8, int(math.isqrt(n)) // 2 * 2)
    torus = torus_2d(side, side)

    plan = MeasurementPlan(jobs=1, cache_dir=None)
    handles = {}
    for k in [1, *ks]:
        handles[("rr-worst", k)] = schedule_rotor_worst(plan, n, k)
        handles[("rr-best", k)] = schedule_rotor_best(plan, n, k)
        handles[("rw-worst", k)] = schedule_walk(plan, n, k, spaced=False)
        handles[("rw-best", k)] = schedule_walk(plan, n, k, spaced=True)
        handles[("torus", k)] = schedule_torus(plan, torus, side, k)
    stats = plan.execute()

    def value(column: str, k: int) -> float:
        resolved = handles[(column, k)].value
        return float(getattr(resolved, "mean", resolved))

    table = Table(
        columns=[
            "k",
            "RR worst",
            "RW worst",
            "RR best",
            "RW best",
            f"RR torus {side}x{side}",
            "log k",
            "k^2",
        ],
        caption=f"Cover-time speed-up S(k) = C(1)/C(k) on the n={n} ring",
        formats=["d", ".2f", ".2f", ".1f", ".1f", ".2f", ".2f", "d"],
    )
    for k in ks:
        table.add_row(
            k,
            value("rr-worst", 1) / value("rr-worst", k),
            value("rw-worst", 1) / value("rw-worst", k),
            value("rr-best", 1) / value("rr-best", k),
            value("rw-best", 1) / value("rw-best", k),
            value("torus", 1) / value("torus", k),
            math.log(k),
            k * k,
        )
    print(table.render())
    print()
    print("reading guide (paper Table 1):")
    print("  * worst-placement columns track log k for both models;")
    print("  * best-placement rotor-router tracks k^2; random walks lag")
    print("    behind by the log^2 k factor;")
    print("  * the torus column shows the near-linear general-graph")
    print("    behaviour observed by Yanovski et al.")
    print(stats.summary_line())


if __name__ == "__main__":
    main()
