"""Explicit measurement cells: experiment requests as sweep work units.

The grid language of :mod:`repro.sweep.spec` names its cells by
*family* (``equally_spaced/negative``); the paper-reproduction
experiments instead materialize concrete instances — explicit agent
lists, explicit pointer arrays, explicit repetition seeds — because
their seed derivations predate the sweep subsystem and must stay
bit-identical across backends.  This module gives those explicit
requests first-class sweep citizenship: each cell type carries the
fully materialized instance, hashes it into a deterministic
``config_hash`` (so the executor's on-disk cache works for experiment
cells exactly as it does for scenario cells), and exposes the same
duck-typed surface the executor's chunk planner and kernels consume
(``model``/``n``/``k``/``metrics``/``max_rounds``/``repetitions`` plus
``build``/``build_agents``/``rep_seeds``).

Four cell kinds cover every measurement the experiments make:

* :class:`RotorCell` — deterministic rotor-router lanes on the ring
  (cover and/or limit-cycle stabilization + return gaps);
* :class:`WalkCoverCell` — one stochastic cover measurement fanned over
  explicit per-repetition seeds (seed-for-seed equal to the serial
  :func:`repro.randomwalk.cover.estimate_cover_time` harness);
* :class:`WalkGapsCell` — visit-gap statistics of k walkers at one
  node (the Table 1 return-time contrast column);
* :class:`GeneralRotorCell` — rotor-router cover on an arbitrary
  port-labeled graph (the Yanovski speed-up extension); lanes batch
  through the CSR kernel of :mod:`repro.sweep.batch_general`.

Cells are validated once, at construction, and are themselves the
executor's chunk payload: a chunk holds the planner's own cell objects
(pickled as-is to worker processes, where unpickling neither validates
nor hashes again, since ``config_hash`` is cached on the instance).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

from repro.sweep.spec import METRICS, IdentityText

#: Bump when any explicit cell's identity layout or measurement
#: semantics change, so stale cache entries are never served.
#: v2: general cells identify their graph by CSR digest instead of
#: embedding the full O(m) port lists in every cell's identity.
CELL_SCHEMA_VERSION = 2


def general_cover_budget(graph: Any) -> int:
    """Default round budget of a general-graph rotor cover cell.

    Yanovski et al.: a single agent covers within O(D·m) rounds and
    extra agents never hurt; ``16·D·m + 64`` leaves generous slack for
    bad pointer ports.  The budget joins the cell identity, so every
    site that derives one (scenario grids, measurement plans, the
    serial harness) calls this.  ``graph.diameter()`` caches, so wide
    grids pay the n-BFS sweep once per graph.
    """
    return 16 * graph.diameter() * graph.num_edges + 64


def _hash_identity(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_ring(n: int) -> None:
    if n < 3:
        raise ValueError(f"ring requires at least 3 nodes, got {n}")


def _check_budget(max_rounds: int) -> None:
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive, got {max_rounds}")


def _check_agents(agents: tuple[int, ...], n: int, where: str) -> None:
    """Reject agent positions off the ``n`` nodes, in O(k)."""
    if min(agents) < 0 or max(agents) >= n:
        raise ValueError(
            f"agent positions must lie in [0, {n}) on the {where}, got "
            f"{min(agents)}..{max(agents)}"
        )


@dataclass(frozen=True)
class RotorCell(IdentityText):
    """One explicit rotor-router instance on the ring.

    ``metrics`` chooses the measurement: ``("cover",)`` for the cover
    round, ``("stabilization", "return")`` for Brent's limit cycle plus
    in-cycle visit gaps (the executor computes both from one pipeline
    pass).  The identity is the full instance, so two experiments
    requesting the same (n, agents, directions, metrics, budget) share
    one cache entry regardless of how they derived it.
    """

    n: int
    agents: tuple[int, ...]
    directions: tuple[int, ...]
    metrics: tuple[str, ...]
    max_rounds: int

    model = "rotor"
    repetitions = 1

    def __post_init__(self) -> None:
        _check_ring(self.n)
        if not self.agents:
            raise ValueError("at least one agent is required")
        _check_agents(self.agents, self.n, "ring")
        if len(self.directions) != self.n:
            raise ValueError(
                f"expected {self.n} pointer directions, "
                f"got {len(self.directions)}"
            )
        if not set(self.directions) <= {1, -1}:
            bad = next(d for d in self.directions if d not in (1, -1))
            raise ValueError(
                f"pointer directions must be +1 or -1, got {bad!r}"
            )
        if not self.metrics:
            raise ValueError("at least one metric is required")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(
                    f"unknown metric {metric!r}; known: {METRICS}"
                )
        _check_budget(self.max_rounds)

    @property
    def k(self) -> int:
        return len(self.agents)

    def identity(self) -> dict:
        return {
            "kind": "rotor-cell",
            "schema": CELL_SCHEMA_VERSION,
            "n": self.n,
            "agents": list(self.agents),
            "directions": list(self.directions),
            "metrics": list(self.metrics),
            "max_rounds": self.max_rounds,
        }

    @cached_property
    def config_hash(self) -> str:
        return _hash_identity(self._dump_identity())

    def build(self) -> tuple[list[int], list[int]]:
        """``(agents, directions)`` — mirrors ``SweepConfig.build``."""
        return list(self.agents), list(self.directions)


@dataclass(frozen=True)
class WalkCoverCell(IdentityText):
    """One stochastic cover measurement over explicit repetition seeds.

    Each seed is consumed exactly as a standalone
    :class:`repro.randomwalk.ring_walk.RingRandomWalks` run would
    consume it, so the batch kernel's per-repetition cover rounds are
    seed-for-seed those of the serial repetition harness.  Metrics
    always include the raw per-repetition samples (``cover_samples``),
    letting callers rebuild the exact serial
    :class:`repro.randomwalk.cover.CoverEstimate`.
    """

    n: int
    agents: tuple[int, ...]
    seeds: tuple[int, ...]
    max_rounds: int

    model = "walk"
    metrics = ("cover",)
    #: The walk chunk records per-repetition samples for these cells.
    record_samples = True

    def __post_init__(self) -> None:
        _check_ring(self.n)
        if not self.agents:
            raise ValueError("at least one walker is required")
        _check_agents(self.agents, self.n, "ring")
        if not self.seeds:
            raise ValueError("at least one repetition seed is required")
        _check_budget(self.max_rounds)

    @property
    def k(self) -> int:
        return len(self.agents)

    @property
    def repetitions(self) -> int:
        return len(self.seeds)

    def identity(self) -> dict:
        return {
            "kind": "walk-cover-cell",
            "schema": CELL_SCHEMA_VERSION,
            "n": self.n,
            "agents": list(self.agents),
            "seeds": list(self.seeds),
            "max_rounds": self.max_rounds,
        }

    @cached_property
    def config_hash(self) -> str:
        return _hash_identity(self._dump_identity())

    def build_agents(self) -> list[int]:
        return list(self.agents)

    def rep_seeds(self) -> tuple[int, ...]:
        return self.seeds


@dataclass(frozen=True)
class WalkGapsCell(IdentityText):
    """Visit-gap statistics of k equally spaced walkers at one node.

    Wraps :func:`repro.randomwalk.visits.ring_walk_gap_statistics`:
    the cell stores that function's raw arguments, so both backends
    invoke the identical measurement and the gain comes from chunked
    parallelism, caching, and the vectorized visits kernel.
    """

    n: int
    k: int
    node: int
    observation_rounds: int
    burn_in: int
    seed: int

    model = "walk"
    metrics = ("gaps",)
    repetitions = 1

    def __post_init__(self) -> None:
        _check_ring(self.n)
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not 0 <= self.node < self.n:
            raise ValueError(f"node {self.node} out of range for n={self.n}")
        if self.observation_rounds < 1:
            raise ValueError("observation_rounds must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")

    @property
    def max_rounds(self) -> int:
        """Total simulated rounds; doubles as the chunk group key."""
        return self.burn_in + self.observation_rounds

    def identity(self) -> dict:
        return {
            "kind": "walk-gaps-cell",
            "schema": CELL_SCHEMA_VERSION,
            "n": self.n,
            "k": self.k,
            "node": self.node,
            "observation_rounds": self.observation_rounds,
            "burn_in": self.burn_in,
            "seed": self.seed,
        }

    @cached_property
    def config_hash(self) -> str:
        return _hash_identity(self._dump_identity())


@dataclass(frozen=True)
class GeneralRotorCell(IdentityText):
    """Rotor-router cover time on an arbitrary port-labeled graph.

    The identity names the graph by the content digest of its CSR
    packing (:class:`repro.graphs.base.GraphCSR`), so topologically
    identical graphs built by different factories still share cache
    entries, and a cache row's identity holds O(n + k) values (the
    pointer and agent vectors) instead of the full O(m) port lists.
    Cells over one graph share its port tuple and CSR objects, so a
    pickled chunk writes each graph once; chunks dispatch to the
    batched CSR kernel of :mod:`repro.sweep.batch_general`.
    """

    graph_ports: tuple[tuple[int, ...], ...]
    agents: tuple[int, ...]
    ports: tuple[int, ...]
    max_rounds: int

    model = "rotor-general"
    metrics = ("cover",)
    repetitions = 1

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("at least one agent is required")
        _check_agents(self.agents, len(self.graph_ports), "graph")
        if len(self.ports) != len(self.graph_ports):
            raise ValueError(
                f"expected {len(self.graph_ports)} pointer ports, "
                f"got {len(self.ports)}"
            )
        for v, (port, row) in enumerate(zip(self.ports, self.graph_ports)):
            if not 0 <= port < len(row):
                raise ValueError(
                    f"pointer {port} at node {v} out of range for "
                    f"degree {len(row)}"
                )
        _check_budget(self.max_rounds)

    @classmethod
    def from_graph(
        cls,
        graph: Any,
        agents: Iterable[int],
        ports: Iterable[int],
        max_rounds: int,
        **extra: Any,
    ) -> "GeneralRotorCell":
        """Build a cell over a :class:`PortLabeledGraph` without copies.

        Shares the graph's canonical port tuple and its cached CSR, so
        scheduling hundreds of cells over one graph packs (and digests)
        it exactly once.
        """
        cell = cls(
            graph_ports=graph.port_lists(),
            agents=tuple(int(a) for a in agents),
            ports=tuple(int(p) for p in ports),
            max_rounds=int(max_rounds),
            **extra,
        )
        object.__setattr__(cell, "_csr", graph.to_csr())
        return cell

    @property
    def n(self) -> int:
        return len(self.graph_ports)

    @property
    def k(self) -> int:
        return len(self.agents)

    def csr(self) -> Any:
        """The graph's CSR packing (computed once per cell, shared by
        cells built through :meth:`from_graph`, and pickled with the
        cell)."""
        cached = getattr(self, "_csr", None)
        if cached is None:
            from repro.graphs.base import GraphCSR

            cached = GraphCSR.from_ports(self.graph_ports)
            object.__setattr__(self, "_csr", cached)
        return cached

    @property
    def graph_digest(self) -> str:
        return self.csr().digest

    def identity(self) -> dict:
        return {
            "kind": "general-rotor-cell",
            "schema": CELL_SCHEMA_VERSION,
            "graph": self.graph_digest,
            "n": self.n,
            "agents": list(self.agents),
            "ports": list(self.ports),
            "max_rounds": self.max_rounds,
        }

    @cached_property
    def config_hash(self) -> str:
        return _hash_identity(self._dump_identity())


@dataclass(frozen=True)
class LabeledGeneralRotorCell(GeneralRotorCell):
    """A general cell with display labels for sweep tables.

    ``family`` and ``seed`` name how the instance was derived; they are
    deliberately *not* part of the identity, so a labeled scenario cell
    and an unlabeled experiment cell over the same (graph, agents,
    ports, budget) share one cache entry.
    """

    family: str = ""
    seed: int = 0

    @property
    def placement(self) -> str:
        return self.family

    @property
    def pointer(self) -> str:
        return "random"
