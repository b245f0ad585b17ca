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
from repro.graphs.ring import CLOCKWISE, clockwise_distance, source_gaps
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
    toward, sources = _toward_nearest_agent(n, agents)
    toward[sources] = at_agents
    return toward.tolist()


def ring_positive(
    n: int, agents: Iterable[int], at_agents: int = CLOCKWISE
) -> list[int]:
    """Positive initialization: pointer away from the nearest agent.

    First visits *propagate*: an agent reaching a fresh node continues
    onward, the friendly counterpart of :func:`ring_negative`.
    """
    toward, sources = _toward_nearest_agent(n, agents)
    away = -toward
    away[sources] = at_agents
    return away.tolist()


def _toward_nearest_agent(
    n: int, agents: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the direction of its nearest agent (ties clockwise),
    and the sorted distinct agent nodes."""
    sources = np.array(sorted(set(int(a) for a in agents)), dtype=np.int64)
    if not sources.size:
        raise ValueError("at least one agent position is required")
    outside = sources[(sources < 0) | (sources >= n)]
    if outside.size:
        raise ValueError(f"agent position {outside[0]} out of range")
    clockwise_gap, anticlockwise_gap = source_gaps(n, sources)
    return np.where(clockwise_gap <= anticlockwise_gap, 1, -1), sources


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
    return ring_random_row(n, seed).tolist()


def ring_random_row(
    n: int, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """:func:`ring_random`'s draw as an int64 array.

    The sweep's lane materializer writes it into a lane row directly:
    at n = 128, writing the list into a row costs as much as the draw.
    """
    return 1 - 2 * make_rng(seed).integers(0, 2, size=n)


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
    """Uniform random pointer per node, in one draw: the ports, and the
    generator's state after them, equal one draw per node in order."""
    return make_rng(seed).integers(0, graph.to_csr().deg).tolist()


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
