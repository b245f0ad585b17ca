"""The ring (cycle) graph — the paper's main object of study.

Port convention used throughout the reproduction: for every node ``v``
of the n-node ring,

* port 0 leads **clockwise** to ``(v + 1) mod n``;
* port 1 leads **anticlockwise** to ``(v - 1) mod n``.

The paper notes that on the ring there is only one cyclic permutation
of two neighbors, so only the pointer arrangement (not the port order)
is adversarial; fixing this convention therefore loses no generality,
and it is what lets :class:`repro.core.ring.RingRotorRouter` represent
pointers as +/-1 directions while remaining step-for-step equivalent to
the general engine on :func:`ring_graph`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import PortLabeledGraph

CLOCKWISE = +1
ANTICLOCKWISE = -1


def ring_graph(n: int) -> PortLabeledGraph:
    """The n-node cycle with the canonical port convention.

    Requires ``n >= 3`` (a 2-cycle would be a multigraph, which the
    rotor-router engine does not model).
    """
    if n < 3:
        raise ValueError(f"ring requires at least 3 nodes, got {n}")
    ports = [[(v + 1) % n, (v - 1) % n] for v in range(n)]
    return PortLabeledGraph(ports)


def ring_distance(n: int, u: int, v: int) -> int:
    """Graph distance between ``u`` and ``v`` on the n-ring."""
    d = abs(u - v) % n
    return min(d, n - d)


def clockwise_distance(n: int, u: int, v: int) -> int:
    """Number of clockwise steps from ``u`` to ``v`` on the n-ring."""
    return (v - u) % n


def source_gaps(n: int, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clockwise and anticlockwise steps from every node to a source.

    ``sources`` holds sorted, distinct nodes of the n-ring.  Entry ``v``
    of the first array is the fewest clockwise steps from ``v`` to any
    source, of the second the fewest anticlockwise steps; both are 0 on
    a source.  Each is one ``searchsorted`` for the next source on that
    side, wrapping around the ring.
    """
    nodes = np.arange(n)
    ahead = sources[np.searchsorted(sources, nodes) % sources.size]
    behind = sources[np.searchsorted(sources, nodes, side="right") - 1]
    return (ahead - nodes) % n, (nodes - behind) % n


def direction_toward(n: int, source: int, target: int) -> int:
    """Shortest-path direction (+1 clockwise / -1 anticlockwise).

    Ties (antipodal target on an even ring) resolve clockwise; the
    adversary in the paper may pick either, and experiments that care
    test both via explicit pointer arrays.
    """
    if source == target:
        raise ValueError("direction is undefined for source == target")
    forward = clockwise_distance(n, source, target)
    return CLOCKWISE if forward <= n - forward else ANTICLOCKWISE
