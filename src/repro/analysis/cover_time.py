"""Cover-time measurement for rotor-routers and random walks.

Thin, explicit harnesses: each function builds a fresh system from a
declarative description (n, k, placement, pointer initialization) and
measures its cover time.  The rotor-router is deterministic — one run
per configuration; random walks go through the repetition harness of
:mod:`repro.randomwalk.cover`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.ring import RingRotorRouter
from repro.core.engine import MultiAgentRotorRouter
from repro.core import pointers as pointer_init
from repro.graphs.base import PortLabeledGraph
from repro.randomwalk.cover import CoverEstimate, estimate_cover_time
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep.cells import general_cover_budget
from repro.util.rng import derive_seed


def ring_rotor_cover_time(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    max_rounds: int | None = None,
) -> int:
    """Cover time of the k-agent rotor-router on the n-ring.

    Deterministic: the result is fully determined by the inputs.  Uses
    the fast counter-free engine.
    """
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    budget = max_rounds if max_rounds is not None else 8 * n * n + 64
    return engine.run_until_covered(budget)


def rotor_cover_time_general(
    graph: PortLabeledGraph,
    agents: Sequence[int],
    ports: Sequence[int],
    max_rounds: int | None = None,
) -> int:
    """Cover time of the rotor-router on an arbitrary graph."""
    engine = MultiAgentRotorRouter(graph, ports, agents)
    if max_rounds is None:
        max_rounds = general_cover_budget(graph)
    return engine.run_until_covered(max_rounds)


def worst_over_pointer_seeds(
    n: int,
    agents: Sequence[int],
    seeds: Iterable[int],
    max_rounds: int | None = None,
) -> int:
    """Max rotor-router cover time over random pointer initializations.

    An empirical stand-in for the adversarial sup over pointer
    arrangements (used alongside the explicit adversarial
    constructions, which dominate it).
    """
    worst = 0
    for seed in seeds:
        directions = pointer_init.ring_random(n, seed)
        worst = max(
            worst, ring_rotor_cover_time(n, agents, directions, max_rounds)
        )
    return worst


def ring_walk_cover_estimate(
    n: int,
    agents: Sequence[int],
    repetitions: int,
    base_seed: int = 0,
    max_rounds: int | None = None,
) -> CoverEstimate:
    """Mean cover time of k independent ring walks from ``agents``."""

    def factory(seed: int) -> RingRandomWalks:
        return RingRandomWalks(n, agents, seed=seed)

    budget = max_rounds if max_rounds is not None else 64 * n * n
    return estimate_cover_time(
        factory, repetitions, base_seed=base_seed, max_rounds=budget
    )


def scenario_cover_function(
    builder: Callable[[int, int], tuple[Sequence[int], Sequence[int]]],
) -> Callable[[int, int], int]:
    """Lift a (placement, pointers) builder into a cover-time function.

    ``builder(n, k)`` returns ``(agents, directions)``; the result maps
    ``(n, k)`` to the deterministic rotor cover time.  Used by the
    speed-up tables.
    """

    def cover(n: int, k: int) -> int:
        agents, directions = builder(n, k)
        return ring_rotor_cover_time(n, agents, directions)

    return cover


def walk_scenario_cover_function(
    placement: Callable[[int, int], Sequence[int]],
    repetitions: int,
    base_seed: int = 0,
) -> Callable[[int, int], float]:
    """Mean-cover-time function for random-walk scenarios."""

    def cover(n: int, k: int) -> float:
        agents = placement(n, k)
        estimate = ring_walk_cover_estimate(
            n,
            agents,
            repetitions,
            base_seed=derive_seed(base_seed, "walk-scenario", n, k),
        )
        return estimate.mean

    return cover
