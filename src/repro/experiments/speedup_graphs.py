"""Multi-agent rotor-router speed-up on general graphs (extension).

Before this paper, the only multi-agent rotor-router study was the
experimental one of Yanovski et al. [27], who reported a *nearly
linear* cover-time speed-up in practical scenarios on general graphs —
in contrast to the ring's Θ(log k)-to-Θ(k²) placement-dependent range
proven here.  This extension experiment reruns that study on the
families in :mod:`repro.graphs` (torus, hypercube, clique, random
regular, lollipop, G(n,p)) with random placements/pointers, reporting
measured speed-up and the best-fitting Table 1 shape.

The whole (family x k x seed) grid schedules onto one
:class:`repro.analysis.backend.MeasurementPlan` and executes through
the CSR-batched kernel of :mod:`repro.sweep.batch_general`: all lanes
— across families — share each round's vectorized dispatches, every
cover cell is cached by its (graph digest, agents, ports) identity,
and chunks spread over worker processes when ``jobs > 1``.  That is
what pays for the 4x node counts and extra seeds relative to the
serial-era grid.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.backend import MeasurementPlan
from repro.analysis.speedup import (
    TABLE1_SHAPES,
    best_matching_shape,
    measure_speedup,
)
from repro.experiments.harness import Report
from repro.graphs import (
    PortLabeledGraph,
    clique,
    gnp_random_graph,
    hypercube,
    lollipop,
    random_regular_graph,
    torus_2d,
)
from repro.sweep.spec import general_instance
from repro.util.stats import summarize
from repro.util.tables import Table

GraphFactory = Callable[[], PortLabeledGraph]

#: ``--quick`` keyword overrides of each runner, in report order: a
#: CI-sized grid on graph families of ~36-64 nodes.
QUICK = {
    "run_speedup_graphs": {
        "ks": (2, 4),
        "seeds": (0, 1),
        "families": {
            "torus": lambda: torus_2d(6, 6),
            "hypercube": lambda: hypercube(6),
            "clique": lambda: clique(16),
            "lollipop": lambda: lollipop(8, 8),
            "gnp": lambda: gnp_random_graph(48, 0.15, seed=101),
        },
    },
}


def default_families(scale: int = 1) -> dict[str, GraphFactory]:
    """Graph families at a size scale (scale=1: ~1024-node graphs).

    4x the node count the serial study could afford (the batched CSR
    kernel's round cost scales with occupied pairs, not graph size),
    plus the two stress shapes the old grid left out: the lollipop
    (the classic bad case for walk-style exploration — its tail makes
    it the slowest family here, so it is kept at a quarter scale) and
    a near-expander G(n, p) sample.
    """
    side = 32 * scale
    n = side * side
    return {
        "torus": lambda: torus_2d(side, side),
        "hypercube": lambda: hypercube(10 if scale == 1 else 12),
        "clique": lambda: clique(4 * side),
        "random-4-regular": lambda: random_regular_graph(n, 4, seed=97),
        "lollipop": lambda: lollipop(3 * side // 2, 5 * side // 2),
        # Mean degree ~8 on n/2 nodes: safely above the connectivity
        # threshold, sparse enough to stay expander-like.
        "gnp": lambda: gnp_random_graph(n // 2, 16.0 / n, seed=101),
    }


def run_speedup_graphs(
    plan: MeasurementPlan,
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    scale: int = 1,
    families: dict[str, GraphFactory] | None = None,
) -> Report:
    report = Report(
        title="Multi-agent rotor-router speed-up on general graphs "
        "(Yanovski et al. [27] experiment)",
        claim=(
            "adding agents never slows exploration; practical speed-up "
            "is nearly linear on well-connected graphs"
        ),
    )
    if families is None:
        families = default_families(scale)
    table = Table(
        columns=["graph", "n", "m"]
        + [f"S({k})" for k in ks]
        + ["best shape", "flatness"],
        caption="Cover-time speed-up S(k) = C(1)/C(k), "
        f"mean over {len(seeds)} random initializations",
        formats=[None, "d", "d"] + [".2f"] * len(ks) + [None, ".2f"],
    )
    # Schedule the whole (family x k x seed) grid, k = 1 included (the
    # speed-up baseline), before a single batched execution.  The
    # instances derive as in the ``general_speedup`` sweep scenario, so
    # the two exchange cache entries cell for cell.
    all_ks = [1, *[k for k in ks if k != 1]]
    scheduled = []
    for name, factory in families.items():
        graph = factory()
        handles = {
            k: [
                plan.rotor_cover_general(
                    graph, *general_instance(graph, k, seed)
                )
                for seed in seeds
            ]
            for k in all_ks
        }
        scheduled.append((name, graph, handles))
    report.stats = plan.execute()

    for name, graph, handles in scheduled:
        means = {
            k: summarize([h.value for h in per_seed]).mean
            for k, per_seed in handles.items()
        }

        def cover(_n: int, k: int, means=means) -> float:
            return means[k]

        speedup_table = measure_speedup(cover, graph.num_nodes, list(ks))
        shape_name, flatness_value = best_matching_shape(
            speedup_table, TABLE1_SHAPES
        )
        table.add_row(
            name,
            graph.num_nodes,
            graph.num_edges,
            *speedup_table.speedups(),
            shape_name,
            flatness_value,
        )
    report.add_table(table)
    report.add_note(
        "monotonicity (S(k) >= 1, non-decreasing within noise) reproduces "
        "[27]'s observation that extra agents never hurt"
    )
    return report
