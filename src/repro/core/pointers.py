"""Pointer (rotor) initializations — the adversary's lever.

In the rotor-router model the port orders and initial pointers are set
by an adversary (paper §1.3).  On the ring only the pointer arrangement
matters, and the paper's bounds differ *only* through it:

* **toward a node v** — every pointer lies along the shortest path to
  ``v``; with all agents on ``v`` this is the Theorem 1 worst case
  (cover Θ(n²/log k)).
* **negative** — the pointer at every unvisited node sends the first
  visiting agent straight back where it came from.  With agents as the
  BFS sources this means "pointer toward the nearest agent".  Used by
  the Theorem 4 adversary and by the domain analysis of §2.2.
* **positive** — the mirror image: first visits propagate outward.
* **uniform / random / alternating** — benign and averaged cases.

Ring pointers are direction arrays (+1 clockwise / -1 anticlockwise)
for :class:`repro.core.ring.RingRotorRouter`; general-graph helpers
return port-index arrays for the reference engine.  The pointer at an
agent's own starting node is not constrained by the definitions above;
it defaults to clockwise (port 0) and can be overridden.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.graphs.base import PortLabeledGraph
from repro.graphs.ring import CLOCKWISE, clockwise_distance
from repro.util.rng import make_rng


# ----------------------------------------------------------------------
# ring pointer arrays (directions +1 / -1)
# ----------------------------------------------------------------------
def ring_toward_node(n: int, target: int, at_target: int = CLOCKWISE) -> list[int]:
    """Pointers along the shortest path toward ``target`` (Theorem 1).

    Antipodal ties (even ``n``) resolve clockwise.  ``at_target`` sets
    the pointer on ``target`` itself, which the definition leaves free.
    """
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for n={n}")
    pointers = []
    for v in range(n):
        if v == target:
            pointers.append(at_target)
            continue
        forward = clockwise_distance(n, v, target)
        pointers.append(+1 if forward <= n - forward else -1)
    return pointers


def ring_negative(
    n: int, agents: Iterable[int], at_agents: int = CLOCKWISE
) -> list[int]:
    """Negative initialization: pointer toward the nearest agent.

    The first agent to reach an unvisited node is sent straight back to
    its previous location (paper §2.2): since exploration reaches a node
    from the side of its nearest agent, the pointer must point toward
    that side.  Ties resolve clockwise; occupied nodes get ``at_agents``.
    """
    sources = sorted(set(int(a) for a in agents))
    if not sources:
        raise ValueError("at least one agent position is required")
    for a in sources:
        if not 0 <= a < n:
            raise ValueError(f"agent position {a} out of range")
    pointers = []
    occupied = set(sources)
    for v in range(n):
        if v in occupied:
            pointers.append(at_agents)
            continue
        clockwise_gap = min(clockwise_distance(n, v, a) for a in sources)
        anticlockwise_gap = min(clockwise_distance(n, a, v) for a in sources)
        pointers.append(+1 if clockwise_gap <= anticlockwise_gap else -1)
    return pointers


def ring_positive(
    n: int, agents: Iterable[int], at_agents: int = CLOCKWISE
) -> list[int]:
    """Positive initialization: pointer away from the nearest agent.

    First visits *propagate*: an agent reaching a fresh node continues
    onward, the friendly counterpart of :func:`ring_negative`.
    """
    negative = ring_negative(n, agents, at_agents=at_agents)
    occupied = {int(a) for a in agents}
    return [d if v in occupied else -d for v, d in enumerate(negative)]


def ring_uniform(n: int, direction: int = CLOCKWISE) -> list[int]:
    """All pointers in the same direction."""
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    return [direction] * n


def ring_alternating(n: int, first: int = CLOCKWISE) -> list[int]:
    """Pointers alternating around the ring (a symmetric benign case)."""
    if first not in (1, -1):
        raise ValueError(f"first must be +1 or -1, got {first}")
    return [first if v % 2 == 0 else -first for v in range(n)]


def ring_random(
    n: int, seed: int | np.random.Generator | None = 0
) -> list[int]:
    """Independent uniform pointers (averaged-case initialization).

    Draws the values, and advances the generator, exactly as
    ``rng.choice((1, -1), size=n)`` does, at a third of its cost.
    """
    rng = make_rng(seed)
    return (1 - 2 * rng.integers(0, 2, size=n)).tolist()


def ring_explicit(directions: Sequence[int]) -> list[int]:
    """Validate and copy an explicit direction sequence."""
    result = []
    for v, d in enumerate(directions):
        if d not in (1, -1):
            raise ValueError(f"pointer at node {v} must be +1 or -1, got {d!r}")
        result.append(int(d))
    return result


# ----------------------------------------------------------------------
# general-graph pointer arrays (port indices)
# ----------------------------------------------------------------------
def zero_ports(graph: PortLabeledGraph) -> list[int]:
    """Every pointer at port 0 (the canonical default)."""
    return [0] * graph.num_nodes


def random_ports(
    graph: PortLabeledGraph, seed: int | np.random.Generator | None = 0
) -> list[int]:
    """Uniform random pointer per node."""
    rng = make_rng(seed)
    return [
        int(rng.integers(0, graph.degree(v)))
        for v in range(graph.num_nodes)
    ]


def ports_toward_sources(
    graph: PortLabeledGraph, sources: Iterable[int]
) -> list[int]:
    """Pointers along BFS shortest paths toward the nearest source.

    The general-graph analogue of :func:`ring_negative` /
    :func:`ring_toward_node`: every node's pointer leads one step closer
    to its nearest source (ties broken by BFS discovery order), so first
    visits reflect back toward the agents.  Sources keep port 0.
    """
    source_list = sorted(set(int(s) for s in sources))
    if not source_list:
        raise ValueError("at least one source is required")
    n = graph.num_nodes
    for s in source_list:
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range")
    parent: list[int | None] = [None] * n
    seen = [False] * n
    queue = deque(source_list)
    for s in source_list:
        seen[s] = True
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                queue.append(u)
    if not all(seen):
        raise ValueError("graph is not connected")
    pointers = []
    for v in range(n):
        if parent[v] is None:
            pointers.append(0)
        else:
            pointers.append(graph.port_to(v, parent[v]))
    return pointers


def ring_direction_to_port(direction: int) -> int:
    """Map a ring direction (+1/-1) to the canonical ring port (0/1)."""
    if direction == 1:
        return 0
    if direction == -1:
        return 1
    raise ValueError(f"direction must be +1 or -1, got {direction}")


def ring_pointers_to_ports(directions: Sequence[int]) -> list[int]:
    """Convert a ring direction array to a port array for the general
    engine on :func:`repro.graphs.ring.ring_graph` (port 0 = clockwise)."""
    return [ring_direction_to_port(d) for d in directions]
