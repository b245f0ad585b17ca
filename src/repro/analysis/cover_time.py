"""Cover-time measurement for rotor-routers and random walks.

Thin, explicit harnesses: each function builds a fresh system from a
declarative description (n, k, placement, pointer initialization) and
measures its cover time.  The rotor-router is deterministic — one run
per configuration; random walks go through the repetition harness of
:mod:`repro.randomwalk.cover`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.ring import RingRotorRouter
from repro.core.engine import MultiAgentRotorRouter
from repro.graphs.base import PortLabeledGraph
from repro.randomwalk.cover import CoverEstimate, estimate_cover_time
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep.cells import general_cover_budget


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
