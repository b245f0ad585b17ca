"""Deterministic graph families used by the paper and its related work.

The paper's headline results are about the ring, but its introduction
and related-work sections compare against other topologies: the
two-dimensional grid (rotor-router cover Θ(|V|^{3/2}) vs random-walk
Θ(|V| log² |V|)), hypercubes and cliques (linear random-walk speed-up),
and stars.  The multi-agent speed-up experiments of Yanovski et al.
[27], which the paper cites as the only prior multi-agent study, are
reproduced on these families by :mod:`repro.experiments.speedup_graphs`.
"""

from __future__ import annotations

from repro.graphs.base import PortLabeledGraph


def path_graph(n: int) -> PortLabeledGraph:
    """The n-node path 0-1-...-(n-1).

    Used by the Theorem 1 analysis: the ring with all agents on one node
    behaves like a path with half the agents at one endpoint.  Interior
    nodes order their ports as [right, left], matching the ring's
    convention; endpoints have a single port.
    """
    if n < 2:
        raise ValueError(f"path requires at least 2 nodes, got {n}")
    ports: list[list[int]] = []
    for v in range(n):
        if v == 0:
            ports.append([1])
        elif v == n - 1:
            ports.append([n - 2])
        else:
            ports.append([v + 1, v - 1])
    return PortLabeledGraph(ports)


def grid_2d(rows: int, cols: int) -> PortLabeledGraph:
    """The rows x cols grid with open boundaries.

    Node (r, c) has id ``r * cols + c``.  Ports are ordered
    east, south, west, north (skipping missing directions), a fixed
    order so runs are reproducible.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if rows * cols < 2:
        raise ValueError("grid must have at least 2 nodes")

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    ports: list[list[int]] = []
    for r in range(rows):
        for c in range(cols):
            row: list[int] = []
            if c + 1 < cols:
                row.append(node_id(r, c + 1))
            if r + 1 < rows:
                row.append(node_id(r + 1, c))
            if c - 1 >= 0:
                row.append(node_id(r, c - 1))
            if r - 1 >= 0:
                row.append(node_id(r - 1, c))
            ports.append(row)
    return PortLabeledGraph(ports)


def torus_2d(rows: int, cols: int) -> PortLabeledGraph:
    """The rows x cols torus (grid with wrap-around), 4-regular.

    Requires both dimensions >= 3 so that the wrap-around does not
    create parallel edges.
    """
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3")

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    ports = []
    for r in range(rows):
        for c in range(cols):
            ports.append(
                [
                    node_id(r, (c + 1) % cols),
                    node_id((r + 1) % rows, c),
                    node_id(r, (c - 1) % cols),
                    node_id((r - 1) % rows, c),
                ]
            )
    return PortLabeledGraph(ports)


def hypercube(dimension: int) -> PortLabeledGraph:
    """The d-dimensional hypercube on 2^d nodes.

    Port i of node v flips bit i: the natural dimension-ordered ports.
    Studied as a rotor-router load-balancing topology by Akbari and
    Berenbrink [1].
    """
    if dimension < 1:
        raise ValueError("hypercube dimension must be at least 1")
    n = 1 << dimension
    ports = [[v ^ (1 << bit) for bit in range(dimension)] for v in range(n)]
    return PortLabeledGraph(ports)


def clique(n: int) -> PortLabeledGraph:
    """The complete graph K_n with ports in ascending neighbor order."""
    if n < 2:
        raise ValueError(f"clique requires at least 2 nodes, got {n}")
    ports = [[u for u in range(n) if u != v] for v in range(n)]
    return PortLabeledGraph(ports)


def star(leaves: int) -> PortLabeledGraph:
    """The star with a center (node 0) and ``leaves`` leaf nodes."""
    if leaves < 1:
        raise ValueError("star requires at least 1 leaf")
    ports = [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    return PortLabeledGraph(ports)


def lollipop(clique_size: int, tail_length: int) -> PortLabeledGraph:
    """A clique with a path tail — the classic bad case for walk-based
    exploration, exercised by cover-time stress tests."""
    if clique_size < 3:
        raise ValueError("lollipop clique must have at least 3 nodes")
    if tail_length < 1:
        raise ValueError("lollipop tail must have at least 1 node")
    n = clique_size + tail_length
    ports: list[list[int]] = []
    for v in range(clique_size):
        row = [u for u in range(clique_size) if u != v]
        if v == clique_size - 1:
            row.append(clique_size)  # attach the tail
        ports.append(row)
    for i in range(tail_length):
        v = clique_size + i
        row = [v - 1]
        if i + 1 < tail_length:
            row.append(v + 1)
        ports.append(row)
    return PortLabeledGraph(ports)
