#!/usr/bin/env python3
"""Sweep quickstart: a declarative, cached, two-job parameter sweep.

Shows the :mod:`repro.sweep` workflow end to end:

1. declare a scenario (grid of sizes, agent counts and initialization
   families, plus the metrics to record);
2. execute it with two worker processes and an on-disk result cache;
3. run it again — every cell is served from the cache, no simulation.

The same scenarios are reachable from the command line::

    python -m repro sweep table1 --jobs 2 --cache out/sweep-cache

A second sweep then turns on the model axis: the same grid with both
the rotor-router and the k-random-walks baseline (walk cells as
mean ± CI over repetitions), joined into speed-up and walk/rotor
ratio tables — the paper's Table 1 workflow in a few lines.

Run:  python examples/sweep_quickstart.py [cache_dir]

A cache directory given on the command line is kept; without one the
sweeps use a temporary directory that is removed on exit.
"""

import sys
import tempfile

from repro.sweep import (
    InitFamily,
    ScenarioSpec,
    run_sweep,
    summary_tables,
)


def main() -> None:
    if len(sys.argv) > 1:
        sweep(sys.argv[1])
        return
    with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
        sweep(cache_dir)


def sweep(cache_dir: str) -> None:
    spec = ScenarioSpec(
        name="quickstart",
        ns=(64, 128, 256),
        ks=(2, 4, 8),
        families=(
            # Table 1's two corners, plus an averaged random case.
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
            InitFamily("random", "random"),
        ),
        metrics=("cover",),
        seeds=(0, 1),
        description="cover times across the Table 1 corners",
    )
    print(f"{spec.num_configs} configurations, spec {spec.spec_hash[:12]}")

    result = run_sweep(spec, jobs=2, cache_dir=cache_dir)
    print(result.table().render())
    print(
        f"\nfirst run:  {result.cache_misses} computed, "
        f"{result.cache_hits} cached, {result.elapsed:.2f}s"
    )

    again = run_sweep(spec, jobs=2, cache_dir=cache_dir)
    print(
        f"second run: {again.cache_misses} computed, "
        f"{again.cache_hits} cached, {again.elapsed:.3f}s "
        f"({result.elapsed / max(again.elapsed, 1e-9):.0f}x faster — "
        f"cache at {cache_dir})"
    )

    # The model axis: rotor vs the random-walk baseline on one grid,
    # with the k=1 cells anchoring the speed-up join.
    versus = ScenarioSpec(
        name="quickstart-versus",
        ns=(64,),
        ks=(1, 2, 4, 8),
        families=(InitFamily("equally_spaced", "negative"),),
        metrics=("cover",),
        models=("rotor", "walk"),
        repetitions=5,
        description="rotor vs k random walks, best placement",
    )
    comparison = run_sweep(versus, jobs=2, cache_dir=cache_dir)
    print()
    for table in summary_tables(comparison):
        print(table.render())
        print()


if __name__ == "__main__":
    main()
