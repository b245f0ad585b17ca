"""Declarative sweep scenarios: the grid language and config hashing.

A :class:`ScenarioSpec` names a parameter grid — ring sizes, agent
counts, initialization families (a named placement from
:mod:`repro.core.placement` paired with a named pointer initialization
from :mod:`repro.core.pointers`), seeds and metrics — and expands into
concrete :class:`SweepConfig` cells.  Every cell carries a
deterministic SHA-256 ``config_hash`` over its canonical identity, so
results can be cached on disk and shared between scenarios: two specs
that happen to contain the same cell hit the same cache entry.

The vocabulary is intentionally the paper's: ``all_on_one/toward_node0``
is the Theorem 1 worst case, ``equally_spaced/negative`` the Theorem 3
placement under the Theorem 4 adversary, and so on.  Random families
(``random`` placement or pointers) fan out over the spec's seeds;
deterministic families collapse to a single seed so the grid never
recomputes identical cells.

Specs also carry a **model axis**: every cell simulates either the
deterministic rotor-router (``model="rotor"``) or the paper's baseline
of k independent random walks (``model="walk"``).  Walk cells ignore
pointer initializations (walks have no rotors — the pointer name is
normalized to :data:`WALK_POINTER`) and fan out over ``repetitions``
seeded repetitions *inside* the cell, coming back as mean/CI metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.core import placement as _placement
from repro.core import pointers as _pointers
from repro.util.rng import default_rng_stream, derive_seed, make_rng

#: Bump when the identity layout or initializer semantics change, so
#: stale cache entries from older code are never served.
#: v2: added the ``model`` axis and the ``repetitions`` field.
SCHEMA_VERSION = 2

#: Metrics a sweep can record per cell.
METRICS = ("cover", "stabilization", "return")

#: Simulation models a cell can run.
MODELS = ("rotor", "walk")

#: Metrics each model supports: random walks have no rotors, hence no
#: limit cycle to stabilize into and no deterministic return gaps.
MODEL_METRICS = {
    "rotor": frozenset(METRICS),
    "walk": frozenset({"cover"}),
}

#: Pointer-name sentinel for walk cells: walks have no rotors, so all
#: pointer initializations collapse to this one name (otherwise two
#: families sharing a placement would split one walk measurement into
#: two cache identities).
WALK_POINTER = "none"

if TYPE_CHECKING:
    #: A family's seed: an int, or a generator it draws from as-is.
    #: (``np.random`` is not touched at import: it loads lazily.)
    Seed = int | np.random.Generator
PlacementFn = Callable[[int, int, "Seed"], list[int]]
PointerFn = Callable[[int, Sequence[int], "Seed"], list[int]]


def _clustered(n: int, k: int, seed: Seed) -> list[int]:
    # sqrt(k) clusters: halfway between all-on-one and fully spread.
    clusters = min(n, max(1, math.isqrt(k)))
    return _placement.clustered(n, k, clusters, seed=seed)


#: name -> (n, k, seed) -> agent starting nodes.
PLACEMENTS: dict[str, PlacementFn] = {
    "all_on_one": lambda n, k, seed: _placement.all_on_one(k),
    "equally_spaced": lambda n, k, seed: _placement.equally_spaced(n, k),
    "half_ring": lambda n, k, seed: _placement.half_ring(n, k),
    "clustered": _clustered,
    "random": lambda n, k, seed: _placement.random_nodes(n, k, seed=seed),
}

#: name -> (n, agents, seed) -> pointer directions (+1/-1 per node).
POINTERS: dict[str, PointerFn] = {
    "toward_node0": lambda n, agents, seed: _pointers.ring_toward_node(n, 0),
    "negative": lambda n, agents, seed: _pointers.ring_negative(n, agents),
    "positive": lambda n, agents, seed: _pointers.ring_positive(n, agents),
    "uniform": lambda n, agents, seed: _pointers.ring_uniform(n),
    "alternating": lambda n, agents, seed: _pointers.ring_alternating(n),
    "random": lambda n, agents, seed: _pointers.ring_random(n, seed=seed),
}

#: name -> (n, seed) -> the POINTERS family's draw as an array, for the
#: families that have one: :func:`rotor_lanes` writes it into a lane
#: row without the list round trip.
POINTER_ROWS: dict[str, Callable[[int, Seed], np.ndarray]] = {
    "random": lambda n, seed: _pointers.ring_random_row(n, seed=seed),
}

#: Initializers whose output depends on the seed.
RANDOM_PLACEMENTS = frozenset({"random", "clustered"})
RANDOM_POINTERS = frozenset({"random"})


@dataclass(frozen=True)
class InitFamily:
    """A named (placement, pointer) initialization pair."""

    placement: str
    pointer: str

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"known: {sorted(PLACEMENTS)}"
            )
        if self.pointer not in POINTERS:
            raise ValueError(
                f"unknown pointer init {self.pointer!r}; "
                f"known: {sorted(POINTERS)}"
            )

    @property
    def name(self) -> str:
        return f"{self.placement}/{self.pointer}"

    @property
    def is_random(self) -> bool:
        return (
            self.placement in RANDOM_PLACEMENTS
            or self.pointer in RANDOM_POINTERS
        )


class IdentityText:
    """One canonical dump of a cell's :meth:`identity`, made once.

    Every cell kind defines ``identity`` and a ``config_hash`` that
    digests :meth:`_dump_identity`, which keeps the text; the result
    store writes it as the row's config, so a cell's identity is dumped
    once however often it is hashed and stored.  The text lives in a
    slot: one more key in a cell's ``__dict__`` would turn its
    shared-key table into a private one three times the size.  Workers
    neither hash nor store cells, so a pickled cell leaves the text
    behind.
    """

    __slots__ = ("_identity_text",)
    _identity_text: str

    def identity(self) -> dict:
        raise NotImplementedError

    def _dump_identity(self) -> str:
        text = json.dumps(
            self.identity(), sort_keys=True, separators=(",", ":")
        )
        object.__setattr__(self, "_identity_text", text)
        return text

    @property
    def identity_text(self) -> str:
        try:
            return self._identity_text
        except AttributeError:  # never hashed in this process
            return self._dump_identity()

    def __getstate__(self) -> dict:
        return self.__dict__


@dataclass(frozen=True)
class SweepConfig(IdentityText):
    """One concrete cell of a sweep grid.

    The identity — and hence the cache key — is everything that
    determines the simulation's outputs: the model, the ring size,
    agent count, both initializer names, the seed, the repetition
    count, the metric set and the round budget.  The scenario name is
    deliberately *not* part of it.

    Walk cells (``model="walk"``) carry the :data:`WALK_POINTER`
    sentinel instead of a pointer name and a ``repetitions`` count > 1:
    the cell is one stochastic measurement whose repetitions run on
    independent derived seeds (:meth:`rep_seeds`) and aggregate into
    mean/CI metrics.
    """

    n: int
    k: int
    placement: str
    pointer: str
    seed: int
    metrics: tuple[str, ...]
    max_rounds: int
    model: str = "rotor"
    repetitions: int = 1

    def identity(self) -> dict:
        """Canonical JSON-stable identity used for hashing and caching."""
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "n": self.n,
            "k": self.k,
            "placement": self.placement,
            "pointer": self.pointer,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "metrics": list(self.metrics),
            "max_rounds": self.max_rounds,
        }

    @cached_property
    def config_hash(self) -> str:
        # Cached: the executor, store probes and result assembly all
        # key on the hash, and the identity is frozen — recomputing
        # the dump + digest per access dominated batched cache probes.
        text = self._dump_identity()
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def build_agents(self) -> list[int]:
        """Materialize the agent placement for this cell.

        Shared by both models — a rotor cell and a walk cell with the
        same (n, k, placement, seed) start from identical positions, so
        rotor-vs-walk comparisons are placement-for-placement fair.
        """
        return PLACEMENTS[self.placement](
            self.n, self.k, derive_seed(self.seed, "placement", self.n, self.k)
        )

    def build(self) -> tuple[list[int], list[int]]:
        """Materialize ``(agents, directions)`` for a rotor cell.

        Placement and pointer draws get independent derived streams so
        adding one initializer never shifts another's randomness.  The
        executor materializes whole chunks with :func:`rotor_lanes`;
        this per-cell form is its reference.
        """
        if self.model != "rotor":
            raise ValueError(
                f"build() is rotor-only; {self.model!r} cells have no "
                "pointer directions (use build_agents / rep_seeds)"
            )
        agents = self.build_agents()
        directions = POINTERS[self.pointer](
            self.n, agents, derive_seed(self.seed, "pointer", self.n, self.k)
        )
        return agents, directions

    def rep_seeds(self) -> tuple[int, ...]:
        """Independent derived seeds, one per stochastic repetition.

        Each seed is exactly what a standalone
        :class:`repro.randomwalk.ring_walk.RingRandomWalks` run of this
        cell's repetition would receive — the batch walk kernel is
        pinned to it seed-for-seed.
        """
        return tuple(
            derive_seed(self.seed, "walk-cover", self.n, self.k, rep)
            for rep in range(self.repetitions)
        )


def rotor_lanes(n: int, cells: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The ``(B, n)`` pointer and count arrays of one chunk of rotor cells.

    The production counterpart of :meth:`SweepConfig.build`, which
    stays the per-cell reference: the arrays equal
    :func:`repro.sweep.batch_ring.lanes_from_configs` over every cell's
    ``build()``.  A :class:`SweepConfig` derives its placement and
    pointer seeds as ``build()`` does, and the same family functions
    draw from one shared generator, reseeded to the state
    ``np.random.default_rng(seed)`` would start from
    (:func:`repro.util.rng.default_rng_stream`), which costs a fraction
    of a new generator.  Pointer families with an array draw
    (:data:`POINTER_ROWS`) write their row directly.  Explicit cells
    (:class:`repro.sweep.cells.RotorCell`) copy their rows.
    """
    if not cells:
        raise ValueError("at least one cell is required")
    seeds: list[int] = []
    for cell in cells:
        if isinstance(cell, SweepConfig):
            seeds += (
                derive_seed(cell.seed, "placement", cell.n, cell.k),
                derive_seed(cell.seed, "pointer", cell.n, cell.k),
            )
    streams = default_rng_stream(seeds)
    pointers = np.empty((len(cells), n), dtype=np.int8)
    agents: list[int] = []
    ks = np.empty(len(cells), dtype=np.int64)
    for b, cell in enumerate(cells):
        if isinstance(cell, SweepConfig):
            placed = PLACEMENTS[cell.placement](n, cell.k, next(streams))
            row = POINTER_ROWS.get(cell.pointer)
            pointers[b] = (
                row(n, next(streams)) if row is not None
                else POINTERS[cell.pointer](n, placed, next(streams))
            )
        else:
            placed = cell.agents
            pointers[b] = cell.directions
        agents += placed
        ks[b] = len(placed)
    flat = np.array(agents, dtype=np.int64)
    if flat.min() < 0 or flat.max() >= n:
        raise ValueError(f"agent position out of range for n={n}")
    flat += np.repeat(np.arange(len(cells), dtype=np.int64) * n, ks)
    counts = np.bincount(flat, minlength=len(cells) * n).reshape(-1, n)
    return pointers, counts.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative sweep: the full grid plus what to measure.

    ``configs()`` expands the grid ``ns x ks x families x seeds``
    (seeds collapse to the first one for deterministic families) into
    :class:`SweepConfig` cells; ``spec_hash`` is a deterministic digest
    of the whole expansion, used to label sweep runs.
    """

    name: str
    ns: tuple[int, ...]
    ks: tuple[int, ...]
    families: tuple[InitFamily, ...]
    metrics: tuple[str, ...] = ("cover",)
    seeds: tuple[int, ...] = (0,)
    #: Which simulation models to sweep; walk cells are stochastic and
    #: fan out over ``repetitions`` internal repetitions.
    models: tuple[str, ...] = ("rotor",)
    #: Repetitions per stochastic (walk) cell; rotor cells are
    #: deterministic and always run once.
    repetitions: int = 1
    #: Round budget per cell: ``max_rounds_factor * n² + 1024``.  The
    #: default covers both cover runs (<= 8 n² in the worst case) and
    #: Brent's stabilization search (preperiod is O(n²) on the ring).
    max_rounds_factor: int = 16
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.ns or any(n < 3 for n in self.ns):
            raise ValueError(f"ns must be non-empty with every n >= 3: {self.ns}")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError(f"ks must be non-empty with every k >= 1: {self.ks}")
        if not self.families:
            raise ValueError("at least one initialization family is required")
        if not self.metrics:
            raise ValueError("at least one metric is required")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(
                    f"unknown metric {metric!r}; known: {METRICS}"
                )
        if not self.models:
            raise ValueError("at least one model is required")
        for model in self.models:
            if model not in MODELS:
                raise ValueError(
                    f"unknown model {model!r}; known: {MODELS}"
                )
            unsupported = set(self.metrics) - MODEL_METRICS[model]
            if unsupported:
                raise ValueError(
                    f"model {model!r} does not support metrics "
                    f"{sorted(unsupported)}; supported: "
                    f"{sorted(MODEL_METRICS[model])}"
                )
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be positive, got {self.repetitions}"
            )
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.max_rounds_factor < 1:
            raise ValueError("max_rounds_factor must be positive")

    def budget(self, n: int) -> int:
        return self.max_rounds_factor * n * n + 1024

    def configs(self) -> list[SweepConfig]:
        """Expand the grid into concrete cells, in deterministic order.

        Deterministic families ignore the seed, so they collapse to a
        single cell with seed 0 — normalizing the identity ensures two
        specs with different seed lists still share cache entries for
        their deterministic cells.  Duplicate grid entries (repeated
        sizes, repeated families) expand once, keeping cell counts,
        progress totals and cache statistics consistent.

        Walk cells normalize the pointer name to :data:`WALK_POINTER`
        (walks have no rotors), so families sharing a placement expand
        to one walk cell; their seed collapses unless the *placement*
        is random — the stochastic walk itself varies over the cell's
        internal repetitions, not over the spec's seed axis.
        """
        cells: list[SweepConfig] = []
        seen: set[tuple] = set()
        metrics = tuple(self.metrics)
        for model in self.models:
            for n in self.ns:
                for k in self.ks:
                    for family in self.families:
                        if model == "walk":
                            pointer = WALK_POINTER
                            repetitions = self.repetitions
                            fan_seeds = family.placement in RANDOM_PLACEMENTS
                        else:
                            pointer = family.pointer
                            repetitions = 1
                            fan_seeds = family.is_random
                        seeds = self.seeds if fan_seeds else (0,)
                        for seed in seeds:
                            cell_id = (
                                model, n, k, family.placement, pointer, seed
                            )
                            if cell_id in seen:
                                continue
                            seen.add(cell_id)
                            cells.append(
                                SweepConfig(
                                    n=n,
                                    k=k,
                                    placement=family.placement,
                                    pointer=pointer,
                                    seed=seed,
                                    metrics=metrics,
                                    max_rounds=self.budget(n),
                                    model=model,
                                    repetitions=repetitions,
                                )
                            )
        return cells

    @property
    def spec_hash(self) -> str:
        digest = hashlib.sha256()
        for config in self.configs():
            digest.update(config.config_hash.encode("ascii"))
        return digest.hexdigest()

    @property
    def num_configs(self) -> int:
        return len(self.configs())


def general_instance(
    graph: Any, k: int, seed: int
) -> tuple[list[int], list[int]]:
    """The seeded ``(agents, ports)`` instance of one general-graph cell.

    One RNG stream draws the k agent positions first, then the pointer
    ports — the historical derivation of the Yanovski speed-up study
    (:mod:`repro.experiments.speedup_graphs`), kept verbatim so sweep
    scenarios and the experiment share cache entries cell for cell.
    """
    rng = make_rng(derive_seed(seed, "speedup", graph.num_nodes, k))
    agents = [int(rng.integers(0, graph.num_nodes)) for _ in range(k)]
    ports = _pointers.random_ports(graph, rng)
    return agents, ports


@dataclass(frozen=True)
class GeneralScenarioSpec:
    """A declarative sweep over general-graph rotor-router cover cells.

    The grid is ``graphs x ks x seeds``: every cell is one seeded
    (placement, pointer) instance (:func:`general_instance`) of a named
    graph, materialized as a
    :class:`repro.sweep.cells.LabeledGeneralRotorCell` — so the cells
    run through the batched CSR kernel, cache by their (graph digest,
    agents, ports, budget) identity, and render in sweep tables under
    their family name.  Include ``1`` in ``ks`` to anchor the
    aggregate speed-up view ``S(k) = C(1)/C(k)``.

    Graph instances (not factories) are part of the spec, so the spec
    is hashable and its expansion deterministic; budgets follow
    :func:`repro.sweep.cells.general_cover_budget`, like the analysis
    backend's.
    """

    name: str
    #: ``(family name, PortLabeledGraph)`` pairs; duck-typed (the spec
    #: only needs ``diameter()``/``num_edges``/``num_nodes``).
    graphs: tuple[tuple[str, Any], ...]
    ks: tuple[int, ...]
    seeds: tuple[int, ...] = (0,)
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ValueError("at least one graph family is required")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError(
                f"ks must be non-empty with every k >= 1: {self.ks}"
            )
        if not self.seeds:
            raise ValueError("at least one seed is required")

    def configs(self) -> list:
        from repro.sweep.cells import (
            LabeledGeneralRotorCell,
            general_cover_budget,
        )

        cells: list[LabeledGeneralRotorCell] = []
        for family, graph in self.graphs:
            budget = general_cover_budget(graph)
            for k in self.ks:
                for seed in self.seeds:
                    agents, ports = general_instance(graph, k, seed)
                    cells.append(
                        LabeledGeneralRotorCell.from_graph(
                            graph, agents, ports, budget,
                            family=family, seed=seed,
                        )
                    )
        return cells

    @property
    def spec_hash(self) -> str:
        digest = hashlib.sha256()
        for config in self.configs():
            digest.update(config.config_hash.encode("ascii"))
        return digest.hexdigest()

    @property
    def num_configs(self) -> int:
        return len(self.configs())
