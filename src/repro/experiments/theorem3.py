"""Theorem 3: equally spaced agents cover in O(n²/k²), any pointers.

The theorem's content is adversary-proof speed: *regardless of the
initial pointer arrangement*, a placement on points splitting the ring
into arcs of length <= n/k covers within O((n/k)²).  We sweep k for
fixed n under several pointer arrangements — including the Theorem 4
adversary (negative) and randomized ones — and verify the normalized
column ``C · k² / n²`` stays flat and bounded.

The (k x pointer-family x seed) grid is scheduled on one
:class:`repro.analysis.backend.MeasurementPlan` and executed in a
single batched pass.
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
    "run_theorem3": {"n": 256, "ks": (2, 4, 8, 16), "random_seeds": (0,)},
}

PointerFactory = Callable[[int, Sequence[int], int], list[int]]


def _negative(n: int, agents: Sequence[int], _seed: int) -> list[int]:
    return pointers.ring_negative(n, agents)


def _positive(n: int, agents: Sequence[int], _seed: int) -> list[int]:
    return pointers.ring_positive(n, agents)


def _uniform(n: int, _agents: Sequence[int], _seed: int) -> list[int]:
    return pointers.ring_uniform(n)


def _random(n: int, _agents: Sequence[int], seed: int) -> list[int]:
    return pointers.ring_random(n, seed)


POINTER_FAMILIES: dict[str, PointerFactory] = {
    "negative": _negative,
    "positive": _positive,
    "uniform": _uniform,
    "random": _random,
}


def _spaced_handle(
    plan: MeasurementPlan, n: int, k: int, pointer_family: str, seed: int = 0
):
    """Schedule equally spaced agents' cover under a pointer family."""
    agents = placement.equally_spaced(n, k)
    factory = POINTER_FAMILIES[pointer_family]
    return plan.rotor_cover(n, agents, factory(n, agents, seed))


def run_theorem3(
    plan: MeasurementPlan,
    n: int = 1024,
    ks: Sequence[int] = (2, 4, 8, 16, 32, 64),
    random_seeds: Sequence[int] = (0, 1, 2),
) -> Report:
    report = Report(
        title="Theorem 3: equally spaced placement covers in O(n²/k²)",
        claim=(
            "agents splitting the ring into <= n/k arcs cover within "
            "O((n/k)²) regardless of the pointer arrangement"
        ),
    )
    scheduled = [
        (
            k,
            _spaced_handle(plan, n, k, "negative"),
            _spaced_handle(plan, n, k, "positive"),
            _spaced_handle(plan, n, k, "uniform"),
            [
                _spaced_handle(plan, n, k, "random", derive_seed(s, "t3", n, k))
                for s in random_seeds
            ],
        )
        for k in ks
    ]
    report.stats = plan.execute()

    table = Table(
        columns=[
            "k",
            "C negative",
            "C positive",
            "C uniform",
            "C random(max)",
            "worst*k^2/n^2",
        ],
        caption=f"Equally spaced agents on the n={n} ring",
        formats=["d", "d", "d", "d", "d", ".3f"],
    )
    for k, h_negative, h_positive, h_uniform, h_randoms in scheduled:
        negative = h_negative.value
        positive = h_positive.value
        uniform = h_uniform.value
        random_worst = max(handle.value for handle in h_randoms)
        worst = max(negative, positive, uniform, random_worst)
        table.add_row(
            k,
            negative,
            positive,
            uniform,
            random_worst,
            worst / bounds.rotor_cover_best(n, k),
        )
    report.add_table(table)
    report.add_note(
        "the last column (worst over pointer families, normalized by "
        "(n/k)²) should stay bounded and roughly flat in k"
    )
    return report
