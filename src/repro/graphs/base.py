"""Port-labeled undirected graphs.

A :class:`PortLabeledGraph` over nodes ``0..n-1`` stores, for each node
``v``, the list ``ports[v]`` of neighbors *in cyclic port order*: port
``i`` of ``v`` leads to ``ports[v][i]``, and the rotor-router advances
pointers through ports ``0, 1, ..., deg(v)-1`` cyclically.

The graph is simple (no self-loops, no parallel edges) and undirected:
``u`` appears in ``ports[v]`` exactly when ``v`` appears in
``ports[u]``.  The *directed symmetric version* of the paper (arcs
``(v,u)`` and ``(u,v)`` for every edge ``{v,u}``) is implicit: an arc is
identified by its tail and port index.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class GraphCSR:
    """A port-labeled graph packed into CSR arrays.

    The flat layout the batched general-graph kernel consumes: node
    ``v``'s neighbors in port order are
    ``neighbors[indptr[v]:indptr[v + 1]]``, so *arc* ``(v, port)`` is
    row ``indptr[v] + port``.  ``deg`` is redundant with ``indptr``
    but kept materialized because the kernel gathers it per occupied
    node every round.

    Arrays are immutable (``writeable=False``); ``digest`` is a
    deterministic content hash of the packed structure, which names
    the graph in general-graph cells' cache identities instead of its
    full port lists.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    deg: np.ndarray

    def __post_init__(self) -> None:
        for name in ("indptr", "neighbors", "deg"):
            array = getattr(self, name)
            if array.flags.writeable:
                array = array.copy()
                array.flags.writeable = False
                object.__setattr__(self, name, array)

    @classmethod
    def from_ports(cls, ports: Sequence[Sequence[int]]) -> "GraphCSR":
        """Pack explicit port lists (``ports[v]`` in cyclic order)."""
        deg = np.fromiter(
            (len(row) for row in ports), dtype=np.int64, count=len(ports)
        )
        indptr = np.zeros(len(ports) + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        if indptr[-1]:
            neighbors = np.concatenate(
                [np.asarray(row, dtype=np.int64) for row in ports if len(row)]
            )
        else:
            neighbors = np.zeros(0, dtype=np.int64)
        return cls(indptr=indptr, neighbors=neighbors, deg=deg)

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        return int(self.indptr[-1])

    @property
    def digest(self) -> str:
        """Deterministic content hash of the packed graph structure."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            payload = self.indptr.tobytes() + self.neighbors.tobytes()
            cached = hashlib.sha256(payload).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def to_ports(self) -> tuple[tuple[int, ...], ...]:
        """Unpack back into the port-list form (exact round trip)."""
        flat = self.neighbors.tolist()
        bounds = self.indptr.tolist()
        return tuple(
            tuple(flat[bounds[v]:bounds[v + 1]])
            for v in range(self.num_nodes)
        )


#: Sources per pass of :func:`_bitset_diameter`: each pass holds two
#: bitset matrices, ``(n, 64)`` and ``(2m, 64)`` uint64 words.
DIAMETER_SOURCES = 4096


def _bitset_diameter(csr: GraphCSR) -> int:
    """The largest eccentricity, by BFS balls grown as uint64 bitsets.

    Bit ``s`` of row ``v`` of ``reach`` says that ``v`` lies within the
    current distance of source ``s``.  One ``np.bitwise_or.reduceat``
    over the CSR rows ORs every node's neighbors' rows, which grows all
    balls by one level.  The levels until every row is full are the
    sources' largest eccentricity; a level that adds nothing before that
    means the graph is disconnected.
    """
    n = csr.num_nodes
    if n == 0:
        raise ValueError("the empty graph has no diameter")
    if n > 1 and not csr.deg.all():
        raise ValueError("graph is not connected")
    diameter = 0
    for first in range(0, n, DIAMETER_SOURCES):
        sources = np.arange(first, min(n, first + DIAMETER_SOURCES))
        bit = (sources - first).astype(np.uint64)
        reach = np.zeros((n, -(-sources.size // 64)), dtype=np.uint64)
        reach[sources, bit // np.uint64(64)] = np.uint64(1) << bit % 64
        full = np.bitwise_or.reduce(reach, axis=0)
        levels = 0
        while not (reach == full).all():
            grown = reach | np.bitwise_or.reduceat(
                reach[csr.neighbors], csr.indptr[:-1], axis=0
            )
            if np.array_equal(grown, reach):
                raise ValueError("graph is not connected")
            reach = grown
            levels += 1
        diameter = max(diameter, levels)
    return diameter


class PortLabeledGraph:
    """An undirected graph with explicit cyclic port orderings.

    Parameters
    ----------
    ports:
        ``ports[v]`` is the sequence of neighbors of node ``v`` in port
        order.  The constructor copies the data into tuples, so the
        graph is immutable after construction.
    validate:
        When true (the default), check symmetry and simplicity.
    """

    __slots__ = (
        "_ports", "_port_index_cache", "_num_edges", "_csr_cache",
        "_diameter_cache",
    )

    def __init__(
        self, ports: Sequence[Sequence[int]], validate: bool = True
    ) -> None:
        self._ports: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(u) for u in row) for row in ports
        )
        n = len(self._ports)
        if validate:
            self._validate(n)
        self._port_index_cache: tuple[dict[int, int], ...] | None = None
        self._csr_cache: GraphCSR | None = None
        self._diameter_cache: int | None = None
        self._num_edges = sum(len(row) for row in self._ports) // 2

    @property
    def _port_index(self) -> tuple[dict[int, int], ...]:
        """Reverse lookup (port index of u within ports[v]), built lazily.

        Most graphs never need the reverse direction — simulation only
        follows ports forward — and building one dict per node is O(m)
        Python-object work, so it is deferred to the first
        ``port_to``/``has_edge`` call instead of taxing every
        construction.
        """
        if self._port_index_cache is None:
            self._port_index_cache = tuple(
                {u: i for i, u in enumerate(row)} for row in self._ports
            )
        return self._port_index_cache

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> "PortLabeledGraph":
        """Build a graph with ports ordered by ascending neighbor id."""
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        return cls([sorted(neigh) for neigh in adjacency])

    def _validate(self, n: int) -> None:
        for v, row in enumerate(self._ports):
            seen: set[int] = set()
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(f"node {v} has out-of-range neighbor {u}")
                if u == v:
                    raise ValueError(f"self-loop at node {v}")
                if u in seen:
                    raise ValueError(
                        f"parallel edge {v}-{u}: multigraphs are not supported"
                    )
                seen.add(u)
        for v, row in enumerate(self._ports):
            for u in row:
                if v not in self._ports[u]:
                    raise ValueError(
                        f"asymmetric adjacency: {v}->{u} present, {u}->{v} missing"
                    )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._ports)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_arcs(self) -> int:
        """Number of arcs of the directed symmetric version (2m)."""
        return 2 * self._num_edges

    def degree(self, v: int) -> int:
        return len(self._ports[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in port order."""
        return self._ports[v]

    def port_lists(self) -> tuple[tuple[int, ...], ...]:
        """All port lists at once (the constructor's canonical form).

        Returns the internal immutable tuple, so callers materializing
        many cells over one graph share a single structure instead of
        copying O(m) port data per cell.
        """
        return self._ports

    def to_csr(self) -> GraphCSR:
        """The graph packed into CSR arrays (computed once, cached)."""
        if self._csr_cache is None:
            self._csr_cache = GraphCSR.from_ports(self._ports)
        return self._csr_cache

    def port_target(self, v: int, port: int) -> int:
        """The node reached from ``v`` through port ``port``."""
        return self._ports[v][port % len(self._ports[v])]

    def port_to(self, v: int, u: int) -> int:
        """The port index of ``v`` that leads to neighbor ``u``."""
        try:
            return self._port_index[v][u]
        except KeyError as exc:
            raise ValueError(f"{u} is not a neighbor of {v}") from exc

    def has_edge(self, v: int, u: int) -> bool:
        return u in self._port_index[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(min, max)`` pairs."""
        for v, row in enumerate(self._ports):
            for u in row:
                if v < u:
                    yield (v, u)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Iterate over all arcs (both orientations of every edge)."""
        for v, row in enumerate(self._ports):
            for u in row:
                yield (v, u)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        n = self.num_nodes
        if n == 0:
            return True
        return len(self._bfs_distances(0)) == n

    def _bfs_distances(self, source: int) -> dict[int, int]:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in self._ports[v]:
                if u not in distances:
                    distances[u] = distances[v] + 1
                    queue.append(u)
        return distances

    def bfs_distances(self, source: int) -> list[int]:
        """Distances from ``source`` to every node (-1 if unreachable)."""
        found = self._bfs_distances(source)
        return [found.get(v, -1) for v in range(self.num_nodes)]

    def eccentricity(self, source: int) -> int:
        """Maximum distance from ``source`` (graph must be connected)."""
        found = self._bfs_distances(source)
        if len(found) != self.num_nodes:
            raise ValueError("graph is not connected")
        return max(found.values())

    def diameter(self) -> int:
        """Exact diameter, computed once and cached.

        A BFS from every source at once (:func:`_bitset_diameter`).  The
        cache matters because round-budget derivations consult the
        diameter once per scheduled cell — grids fan hundreds of cells
        over one graph instance.  A disconnected graph raises
        ``ValueError``, as :meth:`eccentricity` does.
        """
        if self._diameter_cache is None:
            self._diameter_cache = _bitset_diameter(self.to_csr())
        return self._diameter_cache

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._ports == other._ports

    def __hash__(self) -> int:
        return hash(self._ports)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortLabeledGraph(n={self.num_nodes}, m={self.num_edges})"
        )
