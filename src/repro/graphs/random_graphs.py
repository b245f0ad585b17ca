"""Seeded random graphs (expanders in practice) and port shuffling.

Parallel random-walk speed-up is known to be linear on expanders
(Alon et al. [4], Elsässer–Sauerwald [15]); we reproduce the analogous
multi-agent rotor-router behaviour on random regular graphs.  Both
generators take explicit seeds so experiments are reproducible, and
both return connected graphs (retrying the construction when needed).
"""

from __future__ import annotations

import random

import numpy as np

from repro.graphs.base import PortLabeledGraph
from repro.util.rng import make_rng

_MAX_ATTEMPTS = 200


def gnp_random_graph(
    n: int,
    p: float,
    seed: int | np.random.Generator | None = 0,
    require_connected: bool = True,
) -> PortLabeledGraph:
    """Erdős–Rényi G(n, p) with ports in ascending neighbor order.

    When ``require_connected`` is set the construction retries with
    fresh randomness until the sample is connected, which for
    ``p >= 2 ln n / n`` succeeds quickly.
    """
    if n < 2:
        raise ValueError(f"G(n,p) requires n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        mask = rng.random((n, n)) < p
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if mask[u, v]
        ]
        graph = PortLabeledGraph.from_edges(n, edges)
        if not require_connected or graph.is_connected():
            return graph
    raise RuntimeError(
        f"failed to sample a connected G({n}, {p}) in {_MAX_ATTEMPTS} attempts"
    )


def random_regular_graph(
    n: int, degree: int, seed: int | np.random.Generator | None = 0
) -> PortLabeledGraph:
    """A connected random d-regular graph.

    Samples by Steger–Wormald stub pairing (which avoids the naive
    pairing model's exponential rejection rate at higher degrees), as
    networkx 3.x's ``random_regular_graph`` does: the same seed gives
    the same edge set.  Retries with derived seeds until the sample is
    connected — quick for d >= 3, where random regular graphs are
    connected w.h.p.
    """
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree >= n:
        raise ValueError("degree must be smaller than n")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = make_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        sampler = random.Random(int(rng.integers(0, 2 ** 31 - 1)))
        edges = _pair_stubs(n, degree, sampler)
        while edges is None:
            edges = _pair_stubs(n, degree, sampler)
        graph = PortLabeledGraph.from_edges(n, edges)
        if graph.is_connected():
            return graph
    raise RuntimeError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )


def _pair_stubs(
    n: int, degree: int, sampler: random.Random
) -> set[tuple[int, int]] | None:
    """One Steger–Wormald pairing pass: an edge set, or None if stuck.

    Shuffles the ``degree`` stubs of every node and pairs them up,
    keeping each pair that is no loop and no repeated edge; the rest
    are shuffled and paired again until none remain.
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        leftover: dict[int, int] = {}
        sampler.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] = leftover.get(s1, 0) + 1
                leftover[s2] = leftover.get(s2, 0) + 1
        if not _suitable(edges, leftover):
            return None
        stubs = [
            node for node, count in leftover.items() for _ in range(count)
        ]
    return edges


def _suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    """networkx's check that some leftover pair can still become an edge.

    Kept as networkx writes it, down to the swap that rebinds ``s1``
    for the rest of the inner loop, so that every sample, and with it
    every seeded graph, equals networkx's.
    """
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def shuffled_ports(
    graph: PortLabeledGraph, seed: int | np.random.Generator | None = 0
) -> PortLabeledGraph:
    """Return the same graph with every node's port order shuffled.

    Port orders are part of the adversarial initialization in the
    rotor-router model; shuffling them (deterministically, per seed)
    lets experiments sample over cyclic orders on graphs of degree > 2.
    """
    rng = make_rng(seed)
    new_ports = []
    for v in range(graph.num_nodes):
        row = list(graph.neighbors(v))
        rng.shuffle(row)
        new_ports.append(row)
    return PortLabeledGraph(new_ports)
