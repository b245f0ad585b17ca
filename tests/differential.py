"""One differential harness: seeded instances, one oracle, one path table.

Bit-identity with the ``repro.core`` reference engines is the contract
of every fast path; this module checks it.  **Generators** (:func:`start`
and the instance sets after it) draw seeded instances over every regime
the paths branch on.  **The oracle** runs each instance's reference
engine once per session (``functools.cache`` keyed by the instance).
**The path table** :data:`PATHS` holds one row per production path and
property.  A row runs its instances through the path under each value
of the module constants it patches and compares with the oracle; ring
cover and limit rows also check that rotations and reflections change
no result, and the lock-in and lemma rows need no oracle.

Every row runs under exactly one test: ``test_x = case("row")`` in a
test class binds it, one test per shard of the row, and
``tests/test_differential.py`` checks that each row is bound once.  A new
kernel or cell kind joins as one ``@row`` and one ``case``.  From Python,
``check("row")`` runs every shard of a row.  The module is not collected
itself (no ``test_`` prefix).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import numpy as np
import pytest

from repro.analysis.backend import MeasurementPlan
from repro.analysis.domains_stats import (
    border_type_census,
    final_profile_vs_lemma13,
    lemma12_adjacent_difference,
    trace_domains,
)
from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.core import placement, pointers
from repro.core.delayed import hold_all_except_one_at
from repro.core.domains import (
    BorderType,
    DomainError,
    VisitKind,
    VisitTypeTracker,
    border_counts,
    classify_borders,
    domain_snapshot,
    domain_snapshots,
)
from repro.core.engine import MultiAgentRotorRouter
from repro.core.path import PathRotorRouter
from repro.core.pointers import random_ports, ring_pointers_to_ports
from repro.core.ring import RingRotorRouter
from repro.experiments import deployments
from repro.graphs import (
    clique,
    gnp_random_graph,
    grid_2d,
    hypercube,
    lollipop,
    path_graph,
    random_regular_graph,
    ring_graph,
    star,
    torus_2d,
)
from repro.graphs.random_graphs import shuffled_ports
from repro.obs.manifest import load_manifest, trace_session
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.sweep import batch_general, batch_ring, batch_walk, executor
from repro.sweep.batch_general import (
    BatchGeneralKernel,
    GeneralLane,
    batch_general_covers,
)
from repro.sweep.batch_ring import (
    BatchRingKernel,
    Trajectory,
    batch_limit_cycles,
    batch_return_gaps,
    lane_block,
    lanes_from_configs,
    ring_trajectories,
    single_agent_covers,
    sparse_ring_covers,
)
from repro.sweep.batch_walk import BatchRingWalks, WalkLane
from repro.sweep.cells import (
    GeneralRotorCell,
    RotorCell,
    WalkCoverCell,
    WalkGapsCell,
    general_cover_budget,
)
from repro.sweep.executor import (
    _plan_chunks,
    _prefer_sparse_covers,
    compute_chunk,
    run_cells,
)
from repro.sweep.registry import scenario
from repro.sweep.spec import (
    PLACEMENTS,
    POINTERS,
    WALK_POINTER,
    SweepConfig,
    general_instance,
)
from repro.sweep.store import SqliteStore
from repro.theory.sequences import solve_profile
from repro.util.rng import derive_seed, make_rng

#: ``batch_ring.COMPACT_RATIO`` values of the ``kernel-cover/ratios`` and
#: ``limit/budgets`` rows (``compaction`` runs 0, 0.3 and 1).
RATIOS = (0.0, 0.5, 1.0)
#: ``BatchRingKernel._WINDOW`` values of the run and window rows.
WINDOWS = (1, 3, 8, 32)
#: ``batch_walk.FUSE_ROUNDS`` values of the ``walk/fusion`` row.
FUSES = (1, 7, 64)


# ----------------------------------------------------------------------
# instances and generators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Start:
    """A ring or path start: ±1 pointers (+1 leads to v + 1), agent nodes."""

    n: int
    directions: tuple[int, ...]
    agents: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.agents)

    def config(self) -> tuple[list[int], list[int]]:
        return list(self.directions), list(self.agents)

    def ring(self, engine: type = RingRotorRouter, **kwargs):
        """A fresh reference engine, counter-free unless asked."""
        kwargs.setdefault("track_counts", False)
        return engine(self.n, *self.config(), **kwargs)

    def tracked(self) -> tuple[RingRotorRouter, VisitTypeTracker]:
        engine = self.ring()
        return engine, VisitTypeTracker(engine)

    def rotated(self, r: int) -> Start:
        n, d = self.n, self.directions
        turned = tuple(d[(v - r) % n] for v in range(n))
        return Start(n, turned, tuple((a + r) % n for a in self.agents))

    def reflected(self) -> Start:
        """The mirror image v -> -v, every pointer flipped."""
        n, d = self.n, self.directions
        mirrored = tuple(-d[-v % n] for v in range(n))
        return Start(n, mirrored, tuple(-a % n for a in self.agents))


def start(rng, n: int, k: int, placing="uniform", pointing="random"):
    """One seeded start on n nodes.

    ``placing``: ``uniform``, ``stacked`` (one node), ``clustered``
    (within about 2k/3 nodes), ``spread`` (k distinct nodes), ``paired``
    (some nodes holding two; k <= 2n), ``endpoint`` or ``ends`` of a
    path, or a ``PLACEMENTS`` family.  ``pointing``: ``random``,
    ``one-way`` (1-3 flips) or a ``POINTERS`` family.
    """
    if placing == "uniform":
        agents = rng.integers(0, n, size=k)
    elif placing == "stacked":
        agents = [int(rng.integers(n))] * k
    elif placing == "clustered":
        width = max(1, 2 * k // 3)
        agents = (int(rng.integers(n)) + rng.integers(0, width, size=k)) % n
    elif placing == "spread":
        agents = rng.choice(n, k, replace=False)
    elif placing == "paired":
        pairs = int(rng.integers(0, k // 2 + 1)) if rng.random() < 0.5 else 0
        pairs = max(pairs, k - n)
        nodes = rng.choice(n, k - pairs, replace=False)
        agents = np.concatenate([nodes, nodes[:pairs]])
    elif placing == "endpoint":
        agents = [int(rng.choice([0, n - 1]))] * k
    elif placing == "ends":
        agents = [0] * (k // 2) + [n - 1] * (k - k // 2)
    else:
        agents = PLACEMENTS[placing](n, k, int(rng.integers(2**31)))
    agents = tuple(int(a) for a in agents)
    if pointing == "random":
        directions = rng.choice((-1, 1), size=n)
    elif pointing == "one-way":
        way = int(rng.choice((1, -1)))
        directions = np.full(n, way)
        flips = int(rng.integers(1, 4))
        directions[rng.integers(0, n, size=flips)] = -way
    else:
        seed = int(rng.integers(2**31))
        directions = POINTERS[pointing](n, list(agents), seed)
    return Start(n, tuple(int(d) for d in directions), agents)


def cycled_start(rng, n: int, k: int, i: int) -> Start:
    """The i-th of stacked, clustered and spread agents; one-way, then
    random pointers."""
    placing = ("stacked", "clustered", "spread")[i % 3]
    return start(rng, n, k, placing, ("one-way", "random")[i // 3 % 2])


def path_start(rng, i: int) -> Start:
    """The i-th path start: n 2-64, 1-9 agents on an end, both or
    anywhere."""
    n = int(rng.integers(2, 65))
    k = int(rng.integers(1, 10))
    return start(rng, n, k, ("endpoint", "ends", "uniform")[i % 3])


def ring_block(rng, max_n: int = 40, max_lanes: int = 6):
    """``(n, starts)``: 2 to max_lanes - 1 lanes, Binomial(2, 0.2) agents
    a node, at least one a lane."""
    n = int(rng.integers(5, max_n))
    count = int(rng.integers(2, max_lanes))
    directions = rng.choice((-1, 1), size=(count, n))
    counts = rng.binomial(2, 0.2, size=(count, n))
    empty = counts.sum(axis=1) == 0
    counts[empty, rng.integers(0, n, size=int(empty.sum()))] = 1
    agents = [tuple(np.repeat(np.arange(n), c).tolist()) for c in counts]
    return n, [
        Start(n, tuple(d.tolist()), a) for d, a in zip(directions, agents)
    ]


def ring_starts(seed: int, count: int) -> list[Start]:
    """Trajectory starts: n 3-64, k 1 to n - 1, cycled."""
    rng = np.random.default_rng(seed)
    starts = []
    for i in range(count):
        n = int(rng.integers(3, 65))
        starts.append(cycled_start(rng, n, int(rng.integers(1, n)), i))
    return starts


def domain_start(rng, n: int, stacked: bool = False) -> Start:
    """A census start: 1-9 agents stacked on one node, or paired."""
    if stacked:
        return start(rng, n, int(rng.integers(1, 10)), "stacked")
    return start(rng, n, int(rng.integers(1, min(9, 2 * n) + 1)), "paired")


def lanes(starts) -> tuple[np.ndarray, np.ndarray]:
    """The ``(B, n)`` kernel arrays of same-size ring starts."""
    return lanes_from_configs(starts[0].n, [s.config() for s in starts])


def with_images(starts, every: int) -> tuple[list[Start], list[int]]:
    """``starts``, then a rotation and the reflection of every
    ``every``-th of them; and the index of each image's original."""
    rng = np.random.default_rng(len(starts))
    picked = range(0, len(starts), every)
    images, sources = [], []
    for i in picked:
        s = starts[i]
        images += [s.rotated(int(rng.integers(1, s.n))), s.reflected()]
        sources += [i, i]
    return list(starts) + images, sources


def assert_symmetric(results: list, count: int, sources: list[int]) -> None:
    """Each image's result (after the first ``count``) is its original's."""
    for j, i in enumerate(sources):
        assert results[count + j] == results[i], (i, results[i])


@functools.cache
def lockstep_starts() -> tuple[tuple[Start, int], ...]:
    """64 starts with 1-80 rounds each: n 3-40, k 1 to 2n, corners
    included."""
    rng = np.random.default_rng(64)
    corners = [(3, 1), (3, 6), (40, 1), (40, 80)]
    sizes = [int(rng.integers(3, 41)) for _ in range(60)]
    draws = [(n, int(rng.integers(1, 2 * n + 1))) for n in sizes]
    out = []
    for n, k in corners + draws:
        s = start(rng, n, k)
        rounds = 80 if (n, k) in corners else int(rng.integers(1, 81))
        out.append((s, rounds))
    return tuple(out)


@functools.cache
def dense_starts() -> dict[int, tuple[Start, ...]]:
    """70 starts at each of n = 11, 32, 64 and 3, k 1 to 3n/2."""
    rng = np.random.default_rng(20260728)
    return {
        n: tuple(
            start(rng, n, int(rng.integers(1, 3 * n // 2)))
            for _ in range(70)
        )
        for n in (11, 32, 64, 3)
    }


@functools.cache
def single_starts() -> dict[int, list[Start]]:
    """Lone agents: one at each n in 3-64 (random, one-way or alternating
    pointers in turn), two at n = 29, and the dense set's k = 1 starts."""
    rng = np.random.default_rng(1)
    kinds = ("random", "one-way", "alternating")
    out = {
        n: [start(rng, n, 1, "uniform", kinds[n % 3])] for n in range(3, 65)
    }
    out[29] += [start(rng, 29, 1, "uniform", kind) for kind in kinds[:2]]
    for n, starts in dense_starts().items():
        out[n] += [s for s in starts if s.k == 1]
    return out


@functools.cache
def sparse_starts() -> tuple[Start, ...]:
    """2,046 sparse ring starts: 33 at each n in 3-64, k 2 to n - 1."""
    rng = np.random.default_rng(20261019)
    return tuple(
        cycled_start(rng, n, int(rng.integers(2, n)) if n > 3 else 2, i)
        for n in range(3, 65)
        for i in range(33)
    )


@functools.cache
def family_starts(n: int) -> tuple[Start, ...]:
    """Every PLACEMENTS family at k = 1, 2, 3, 4, 7 and n // 2, each under
    every POINTERS family: 180 starts."""
    rng = np.random.default_rng(n)
    return tuple(
        start(rng, n, k, placing, pointing)
        for k in (1, 2, 3, 4, 7, n // 2)
        for placing in PLACEMENTS
        for pointing in POINTERS
    )


def mixed_cover_block(n: int):
    """k = 1 lanes beside k = 16 ones, which cover first: the starts and
    their lane arrays."""
    rng = np.random.default_rng(23)
    starts = [start(rng, n, k, "random") for k in (1, 16) * 6]
    return starts, lanes(starts)


def ring_cells(n: int, ks, metrics=("cover",), seed: int = 0):
    """One uniform random rotor cell per entry of ``ks``, budget
    16n² + 1024."""
    rng = np.random.default_rng(seed)
    cells = []
    for k in ks:
        s = start(rng, n, k)
        cells.append(RotorCell(
            n=n,
            agents=s.agents,
            directions=s.directions,
            metrics=metrics,
            max_rounds=16 * n * n + 1024,
        ))
    return cells


#: Every graph family, with mixed degrees: paths and stars have leaves,
#: cliques are dense, lollipops combine both.
FAMILIES: dict[str, Callable] = {
    "ring": lambda: ring_graph(12),
    "path": lambda: path_graph(9),
    "grid": lambda: grid_2d(4, 5),
    "torus": lambda: torus_2d(4, 4),
    "hypercube": lambda: hypercube(4),
    "clique": lambda: clique(7),
    "star": lambda: star(8),
    "lollipop": lambda: lollipop(5, 6),
    "gnp": lambda: gnp_random_graph(18, 0.25, seed=4),
    "random-regular": lambda: random_regular_graph(14, 3, seed=4),
}
#: Graphs by name: the families and those of the plan and chunk rows.
GRAPHS: dict[str, Callable] = {
    **FAMILIES,
    "ring24": lambda: ring_graph(24),
    "grid5": lambda: grid_2d(5, 5),
    "clique12": lambda: clique(12),
    "torus5": lambda: torus_2d(5, 5),
    "lollipop54": lambda: lollipop(5, 4),
    "star5": lambda: star(5),
}


@functools.cache
def graph(name: str, shuffled: bool = False):
    """One named graph, built once; with ``shuffled`` its ports permuted."""
    built = GRAPHS[name]()
    if not shuffled:
        return built
    return shuffled_ports(built, seed=sorted(FAMILIES).index(name))


@dataclass(frozen=True)
class GeneralStart:
    """A rotor start on a named graph: ports, agents and a round budget."""

    family: str
    shuffled: bool
    ports: tuple[int, ...]
    agents: tuple[int, ...]
    budget: int

    def graph(self):
        return graph(self.family, self.shuffled)

    def lane(self) -> GeneralLane:
        csr = self.graph().to_csr()
        return GeneralLane(csr, self.ports, self.agents, self.budget)


def general_start(rng, family: str, k: int, budget: int, shuffled=False):
    g = graph(family, shuffled)
    agents = tuple(int(rng.integers(0, g.num_nodes)) for _ in range(k))
    ports = tuple(random_ports(g, rng))
    return GeneralStart(family, shuffled, ports, agents, budget)


@functools.cache
def general_starts() -> tuple[GeneralStart, ...]:
    """160 lanes: every family, plain and shuffled, k 1 to n + 5, some
    truncating."""
    out = []
    for index, name in enumerate(sorted(FAMILIES)):
        n = graph(name).num_nodes
        ks = (1, 2, 3, n // 2 + 1, n, n + 5)
        cases = [(k, 50_000) for k in ks] + [(1, 7), (4, 3)]
        for variant in (0, 1):
            for case, (k, budget) in enumerate(cases):
                rng = make_rng((index, variant, case))
                out.append(general_start(rng, name, k, budget, bool(variant)))
    return tuple(out)


@dataclass(frozen=True)
class Walk:
    """A walk lane: walker nodes on the n-ring and the lane's seed."""

    n: int
    positions: tuple[int, ...]
    seed: int


@functools.cache
def walk_starts() -> tuple[Walk, ...]:
    """120 walk lanes: n 8-64, 1-8 walkers placed by every PLACEMENTS
    family."""
    rng = np.random.default_rng(7)
    names = list(PLACEMENTS)
    out = []
    for _ in range(120):
        n = int(rng.integers(8, 65))
        k = int(rng.integers(1, 9))
        s = start(rng, n, k, names[int(rng.integers(len(names)))])
        out.append(Walk(n, s.agents, int(rng.integers(2**31))))
    return tuple(out)


def arbitrary_block(rng):
    """Seeded rows of arbitrary states, outside any trajectory.

    1-4 rows on an n-ring (n 3-39): counts 0-2 with at least one agent
    per row, or one site holding one or two agents; random pointers;
    visited nodes covering the occupied ones.  Agent, visited and
    PROPAGATION densities are drawn per row, 0 and 1 included, so rows
    with no run boundary sit beside rows with many.
    """
    n = int(rng.integers(3, 40))
    rows = int(rng.integers(1, 5))
    counts = np.zeros((rows, n), dtype=np.int64)
    for r in range(rows):
        if rng.random() < 0.2:
            counts[r, rng.integers(n)] = rng.integers(1, 3)
            continue
        counts[r] = rng.integers(0, 3, n) * (rng.random(n) < rng.random())
        if not counts[r].any():
            counts[r, rng.integers(n)] = 1
    clockwise = rng.integers(0, 2, (rows, n)).astype(np.int8)
    densities = rng.choice(
        [0.0, 1.0, rng.random(), rng.random()], (2, rows, 1)
    )
    visited = (rng.random((rows, n)) < densities[0]) | (counts > 0)
    propagation = rng.random((rows, n)) < densities[1]
    return counts, clockwise, visited, propagation


# ----------------------------------------------------------------------
# the oracle: each reference run once per session
# ----------------------------------------------------------------------
class RingRun:
    """The reference run of one ring start: :class:`RingRotorRouter`
    stepped forward on demand, each state asked for kept.  A state
    before the engine's round restarts it (rows ask in rising order)."""

    def __init__(self, s: Start) -> None:
        self.start = s
        self._engine = s.ring()
        self._states: dict[int, tuple] = {}
        self._cover: int | None = None

    def state(self, t: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Pointers, counts per node and unvisited nodes after round t."""
        if t not in self._states:
            if t < self._engine.round:
                self._engine = self.start.ring()
            engine = self._engine
            while engine.round < t:
                engine.step()
            counts = tuple(engine.counts.get(v, 0) for v in range(engine.n))
            self._states[t] = (tuple(engine.ptr), counts, engine.unvisited)
            if engine.cover_round is not None:
                self._cover = engine.cover_round
        return self._states[t]

    def cover(self, budget: int) -> int:
        """The cover round, or -1 when it lies past ``budget``."""
        if self._cover is None and self._engine.round < budget:
            with contextlib.suppress(RuntimeError):
                self._cover = self._engine.run_until_covered(budget)
        if self._cover is None or self._cover > budget:
            return -1
        return self._cover


@functools.cache
def ring_run(s: Start) -> RingRun:
    return RingRun(s)


def oracle_cover(n: int, agents, directions, budget: int | None = None):
    """The reference cover round, -1 past ``budget`` (8n² + 64 by
    default)."""
    s = Start(n, tuple(directions), tuple(agents))
    return ring_run(s).cover(8 * n * n + 64 if budget is None else budget)


@dataclass(frozen=True)
class Limit:
    """Preperiod, period, worst and best gaps, and the cycle-start
    configuration."""

    preperiod: int
    period: int
    worst: float
    best: float
    directions: tuple[int, ...]
    counts: tuple[int, ...]


@functools.cache
def ring_limit(s: Start) -> Limit:
    ref = ring_rotor_return_time_exact(s.n, list(s.agents), list(s.directions))
    directions, counts, _ = ring_run(s).state(ref.preperiod)
    return Limit(
        ref.preperiod, ref.period, ref.worst_gap, ref.best_gap,
        directions, counts,
    )


def oracle_limit(n: int, agents, directions) -> Limit:
    return ring_limit(Start(n, tuple(directions), tuple(agents)))


@functools.cache
def general_run(lane: GeneralStart) -> tuple[int, tuple, tuple]:
    """Cover round (-1 past the budget), and pointers and counts then."""
    engine = MultiAgentRotorRouter(
        lane.graph(), list(lane.ports), list(lane.agents)
    )
    try:
        cover = engine.run_until_covered(lane.budget)
    except RuntimeError:
        cover = -1
        engine.run(lane.budget - engine.round)
    return cover, tuple(engine.pointers), tuple(engine.counts.tolist())


@functools.cache
def walk_run(walk: Walk, budget: int) -> tuple[int, tuple, tuple]:
    """Cover round (-1 past the budget), first visits and final positions
    of a seeded walk."""
    system = RingRandomWalks(walk.n, walk.positions, seed=walk.seed)
    try:
        cover = system.run_until_covered(budget)
    except RuntimeError:
        cover = -1
    first = tuple(system.first_visit.tolist())
    return cover, first, tuple(system.positions.tolist())


def engine_state(engine) -> tuple:
    """Round, occupancy, pointer bits, visits and cover round of any
    stepper."""
    if isinstance(engine, Trajectory):
        bits, occupied = engine.bits, engine.occupied
    else:
        bits = [int(d == 1) for d in engine.ptr]
        occupied = engine.counts
    return (
        engine.round,
        tuple(sorted(occupied.items())),
        tuple(bits),
        bytes(engine.visited),
        engine.unvisited,
        engine.cover_round,
    )


def _run_to_stop(step: Callable, engine, rounds: int, stop: int) -> None:
    """``rounds`` steps, ending early at ``stop`` unvisited nodes."""
    for _ in range(rounds):
        step()
        if engine.unvisited <= stop:
            break


@functools.cache
def ring_script(s: Start, script: tuple) -> tuple:
    """State and PROPAGATION flags after each ``(rounds, stop)`` step of
    a tracked run."""
    engine, tracker = s.tracked()
    out = []
    for rounds, stop in script:
        _run_to_stop(tracker.advance, engine, rounds, stop)
        flags = tuple(kind == VisitKind.PROPAGATION for kind in tracker.kinds)
        out.append((engine_state(engine), flags))
    return tuple(out)


@functools.cache
def path_script(s: Start, script: tuple, window: int) -> tuple:
    """Path states after each ``(rounds, stop)`` step, then the rank
    maxima over ``window`` more rounds and the state after them."""
    engine = s.ring(PathRotorRouter)
    states = []
    for rounds, stop in script:
        _run_to_stop(engine.step, engine, rounds, stop)
        states.append(engine_state(engine))
    maxima = [0] * s.k
    for _ in range(window):
        engine.step()
        ranked = sorted(engine.positions(), reverse=True)
        maxima = [max(m, v) for m, v in zip(maxima, ranked)]
    return tuple(states), tuple(maxima), engine_state(engine)


class OraclePath:
    """A path trajectory stepped on :class:`PathRotorRouter`, one round
    at a time, lone agents released by :func:`hold_all_except_one_at`:
    what the deployment ran on before it ran on :class:`Trajectory`."""

    def __init__(self, n, bits, occupied, path=True):
        assert path
        self.engine = PathRotorRouter(
            n,
            [1 if b else -1 for b in bits],
            [v for v, c in occupied.items() for _ in range(c)],
            track_counts=False,
        )

    def __getattr__(self, name):
        engine = self.__dict__["engine"]
        if name == "occupied":
            return engine.counts
        if name == "bits":
            return bytearray(d == 1 for d in engine.ptr)
        return getattr(engine, name)

    def run(self, rounds, stop=-1):
        _run_to_stop(self.engine.step, self.engine, rounds, stop)

    def walk(self, start, target, budget):
        if start == target:
            return 0
        position = start
        for used in range(1, budget + 1):
            moves = self.engine.step(
                hold_all_except_one_at(self.engine, position)
            )
            (moved,) = [m for m in moves if m[0] == position]
            previous, position = position, moved[1]
            if position == target and position == previous + 1:
                return used
        return -1


@functools.cache
def walk_script(s: Start, script: tuple) -> tuple:
    """Rounds used and state after each lone walk ``(rank, target,
    budget)`` on :class:`OraclePath`."""
    bits = [d == 1 for d in s.directions]
    oracle = OraclePath(s.n, bits, Counter(s.agents))
    out = []
    for rank, target, budget in script:
        occupied = sorted(oracle.engine.counts)
        used = oracle.walk(occupied[rank % len(occupied)], target, budget)
        out.append((used, engine_state(oracle.engine)))
        if used < 0:
            break
    return tuple(out)


def deployment_summary(trace) -> tuple:
    return (
        trace.s_ladder,
        trace.phase_a_rounds,
        trace.phase_b1_rounds,
        trace.phase_b2_rounds,
        trace.cover_round,
        trace.invariant_violations,
    )


@functools.cache
def deployment(n: int, k: int) -> tuple:
    """The Theorem 1 deployment stepped on :class:`OraclePath`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deployments, "Trajectory", OraclePath)
        return deployment_summary(deployments.run_theorem1_deployment(n, k))


def outcome(fn, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (DomainError, RuntimeError) as error:
        return type(error)


@functools.cache
def census(s: Start, burn_in: int, rounds: int) -> Counter:
    """The border census of one start on the serial engines."""
    engine, tracker = s.tracked()
    tracker.run(burn_in)
    tally = Counter()
    for _ in range(rounds):
        tracker.advance()
        tally.update(classify_borders(domain_snapshot(engine, tracker)))
    return tally


@functools.cache
def serial_trace(s: Start, total_rounds: int, sample_every: int, stop: bool):
    """``trace_domains`` on the serial engines: (rounds, snapshots)."""
    engine, tracker = s.tracked()
    rounds, snapshots = [], []
    for _ in range(total_rounds):
        tracker.advance()
        if engine.round % sample_every == 0:
            if max(engine.counts.values()) <= 2:
                rounds.append(engine.round)
                snapshots.append(domain_snapshot(engine, tracker))
        if stop and engine.unvisited == 0:
            break
    return rounds, snapshots


def oracle_rows(engine, tracker):
    """One configuration as the ``(1, n)`` rows ``domain_snapshots`` takes."""
    n = engine.n
    counts = np.zeros((1, n), dtype=np.int64)
    for v, c in engine.counts.items():
        counts[0, v] = c
    clockwise = np.asarray([engine.ptr]) == 1
    visited = np.asarray([list(engine.visited)], dtype=bool)
    propagation = np.asarray(
        [[kind == VisitKind.PROPAGATION for kind in tracker.kinds]]
    )
    return counts, clockwise, visited, propagation


@functools.cache
def snapshot_after(s: Start, rounds: int) -> tuple:
    """``domain_snapshot`` (or what it raised), the round and the rows
    after ``rounds``."""
    engine, tracker = s.tracked()
    tracker.run(rounds)
    snap = outcome(domain_snapshot, engine, tracker)
    return snap, engine.round, oracle_rows(engine, tracker)


@functools.cache
def shared_anchor_states(s: Start) -> tuple:
    """Snapshot, round and rows of up to 4 states with all agents on one
    node."""
    engine, tracker = s.tracked()
    out = []
    while engine.round < 2 * s.n * s.n and len(out) < 4:
        tracker.advance()
        if len(engine.counts) == 1:
            snap = domain_snapshot(engine, tracker)
            out.append((snap, engine.round, oracle_rows(engine, tracker)))
    return tuple(out)


def oracle_snapshot(counts, clockwise, visited, propagation, round_):
    """``domain_snapshot`` of one row, through a duck-typed engine."""
    engine = SimpleNamespace(
        n=counts.size,
        round=round_,
        counts={v: int(c) for v, c in enumerate(counts) if c},
        ptr=[1 if bit else -1 for bit in clockwise],
        visited=visited.tolist(),
    )
    tracker = SimpleNamespace(kinds=[
        VisitKind.PROPAGATION if p else VisitKind.NEVER for p in propagation
    ])
    return domain_snapshot(engine, tracker)


def serial_profile(n, k, rounds_budget):
    """``final_profile_vs_lemma13`` on the serial path oracle."""
    engine = PathRotorRouter(n, [-1] * n, [0] * k, track_counts=False)
    for _ in range(rounds_budget):
        if engine.unvisited <= max(2, n // 50):
            break
        engine.step()
    if sorted(engine.positions(), reverse=True)[0] <= k:
        raise RuntimeError("agents did not spread within the budget")
    window = 4 * n
    right_ends = [0] * k
    for _ in range(window):
        engine.step()
        for i, position in enumerate(sorted(engine.positions(), reverse=True)):
            if position > right_ends[i]:
                right_ends[i] = position
    boundaries = right_ends + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    predicted = np.asarray(solve_profile(k).a[1:k + 1], dtype=float)
    return sizes / sizes.sum(), predicted / predicted.sum()


@functools.cache
def profile(n: int, k: int, budget: int):
    return outcome(serial_profile, n, k, budget)


@functools.cache
def engine_moves(s: Start, rounds: int, path: bool = False, hold_seed=None):
    """Holds, moves and positions each round (random holds drawn from
    ``hold_seed``), then the pointers and the counters."""
    engine = s.ring(PathRotorRouter if path else RingRotorRouter,
                    track_counts=True)
    rng = None if hold_seed is None else make_rng(hold_seed)
    steps = []
    for _ in range(rounds):
        holds = None
        if rng is not None:
            holds = {
                v: int(rng.integers(1, c + 1))
                for v, c in list(engine.counts.items())
                if c > 0 and rng.random() < 0.4
            }
        moves = tuple(sorted(engine.step(holds)))
        steps.append((holds, moves, tuple(engine.positions())))
    return (
        tuple(steps),
        tuple(engine.ptr),
        tuple(engine.visit_counts.tolist()),
        tuple(engine.exit_counts.tolist()),
    )


@functools.cache
def path_cover(s: Start, budget: int) -> int:
    return s.ring(PathRotorRouter).run_until_covered(budget)


def brent_rounds(preperiod: int, period: int) -> int:
    """Rounds Brent's phase 1 steps before it confirms ``period``:
    snapshots sit at rounds ``2^j - 1``, each compared against the next
    ``2^j`` rounds, and the first inside the cycle whose window spans a
    full period sees its configuration again ``period`` rounds later."""
    window = 1
    while window - 1 < preperiod or window < period:
        window *= 2
    return window - 1 + period


def rotor_metrics(cell: RotorCell) -> dict:
    """The metrics the executor owes a :class:`RotorCell`, from the
    oracle."""
    s = Start(cell.n, cell.directions, cell.agents)
    if cell.metrics == ("cover",):
        cover = ring_run(s).cover(cell.max_rounds)
        return {"cover": cover if cover >= 0 else None}
    limit = ring_limit(s)
    assert brent_rounds(limit.preperiod, limit.period) <= cell.max_rounds
    return {
        "preperiod": limit.preperiod,
        "period": limit.period,
        "worst_gap": limit.worst,
        "best_gap": limit.best,
    }


def fingerprint_words(n: int, max_agents: int = 126) -> int:
    """Word count of the fingerprint weight vectors of a batch."""
    dtype = np.dtype(np.int8 if max_agents <= 126 else np.int16)
    return batch_ring._padded_columns(n, dtype) * dtype.itemsize // 8


# ----------------------------------------------------------------------
# the path table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Row:
    """One production path and property: ``check(shard)`` runs one of
    ``shards`` through the path and compares with the oracle; ``ids``
    names the shards' tests (pytest's default when None)."""

    check: Callable[[Any], None]
    shards: tuple
    ids: Any


PATHS: dict[str, Row] = {}


def row(name: str, shards=(None,), ids=None) -> Callable:
    """Register the decorated function as the row ``name``."""
    def register(fn: Callable) -> Callable:
        PATHS[name] = Row(fn, tuple(shards), ids)
        return fn
    return register


def check(name: str, *shards) -> None:
    """Run the row ``name`` on ``shards``, by default on all of them."""
    spec = PATHS[name]
    for shard in shards or spec.shards:
        spec.check(shard)


def case(name: str) -> Callable:
    """The test method that runs the row ``name``: one test per shard,
    named by the row's ``ids``, when the row has several shards.  Bind it
    once, in a test class: ``test_x = case("row")``."""
    spec = PATHS[name]
    if len(spec.shards) == 1:
        def test(self) -> None:
            check(name)
        return test

    @pytest.mark.parametrize("shard", spec.shards, ids=spec.ids)
    def test_shard(self, shard) -> None:
        check(name, shard)
    return test_shard


@contextlib.contextmanager
def patched(module: Any, name: str, value: Any) -> Iterator[None]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, value)
        yield


def _assert_states(kernel: BatchRingKernel, starts, held=None) -> None:
    """Held lanes (``held``, default 0, 1, ...) are in the reference
    state."""
    if held is None:
        held = range(len(starts))
    for lane, s in zip(held, starts):
        directions, counts, unvisited = ring_run(s).state(kernel.round)
        got = (
            kernel.directions_lane(lane),
            kernel.counts_lane(lane).tolist(),
            kernel.unvisited_lane(lane),
        )
        assert got == (list(directions), list(counts), unvisited), (
            s, kernel.round,
        )


# ---- the dense ring kernel ---------------------------------------------
LANE_BLOCKS = [(n, k) for k in (16, 200) for n in (37, 100, 130)]


@row(
    "lane-block",
    LANE_BLOCKS,
    ids=[f"{k}-int{8 if k <= 126 else 16}-{n}" for n, k in LANE_BLOCKS],
)
def _lane_block(shard: tuple[int, int]) -> None:
    """``LaneBlock`` whole and prefix steps against the reference: padding,
    words and fingerprints, int8 and int16 counts."""
    n, max_k = shard
    rng = np.random.default_rng(n + max_k)
    ks = [1, 2, max_k] + rng.integers(1, max_k, 6).tolist()
    starts = [start(rng, n, k) for k in ks]
    dtype = np.int8 if max_k <= 126 else np.int16
    block = lane_block(n, *lanes(starts))
    assert block.cnt.dtype == dtype
    rows = len(starts)
    words = block.cnt_words.shape[1]
    fingerprint = batch_ring._Fingerprinter(words, dtype)
    rounds = [0] * rows
    # Whole steps, and prefixes committed by copy and by swap.
    for a in [rows, 2, rows, rows - 1, 1, 6, rows] * 5:
        if a == rows:
            block.step_all()
        else:
            block.step_prefix(a)
        rounds[:a] = [t + 1 for t in rounds[:a]]
        assert block.fwd.shape == (rows, n)
        assert not block._ptr_buf[:, n:].any()
        assert not block._cnt_buf[:, n:].any()
        states = [ring_run(s).state(t) for s, t in zip(starts, rounds)]
        expected = batch_ring.LaneBlock(
            (np.array([d for d, _, _ in states]) == 1).astype(dtype),
            np.array([c for _, c, _ in states]).astype(dtype),
        )
        np.testing.assert_array_equal(block.ptr, expected.ptr)
        np.testing.assert_array_equal(block.cnt, expected.cnt)
        np.testing.assert_array_equal(block.pack(), expected.pack())
        np.testing.assert_array_equal(
            fingerprint.of(block.pack()), fingerprint.of(expected.pack())
        )


@row("kernel-lockstep/run", ["run"])
@row("kernel-lockstep", ["step"])
def _kernel_lockstep(kind: str) -> None:
    """``BatchRingKernel.step`` every round (visits, pointers, counts,
    unvisited nodes), or ``run`` at the default window and at one other
    (1, 3 or 32, in turn): state and cover round, a rotation and the
    reflection of each start beside it."""
    stepped = kind == "step"
    starts = list(enumerate(lockstep_starts()))
    for width in (8,) if stepped else WINDOWS:
        others = [
            (s, rounds) for i, (s, rounds) in starts
            if width == 8 or width == (1, 3, 32)[i % 3]
        ]
        with patched(BatchRingKernel, "_WINDOW", width):
            for s, rounds in others:
                run = ring_run(s)
                batch, sources = with_images([s], 1)
                kernel = BatchRingKernel(s.n, *lanes(batch))
                for t in range(1, rounds + 1) if stepped else ():
                    visits = kernel.step()
                    _assert_states(kernel, [s])
                    arrivals = [c > 0 for c in run.state(t)[1]]
                    assert visits[0].tolist() == arrivals
                kernel.run(rounds - kernel.round)
                assert kernel.round == rounds, (s, width)
                _assert_states(kernel, [s])
                covers = kernel.cover_rounds.tolist()
                assert covers[0] == run.cover(rounds)
                assert_symmetric(covers, 1, sources)


@row("kernel-run/split", range(10))
def _kernel_run_split(trial: int) -> None:
    """``run`` split at any round on a random block: states and covers."""
    rng = np.random.default_rng(2000 + trial)
    n, starts = ring_block(rng)
    rounds = int(rng.integers(1, 200))
    batch, sources = with_images(starts, 1)
    first = int(rng.integers(0, rounds + 1))
    kernel = BatchRingKernel(n, *lanes(batch))
    kernel.run(first)
    kernel.run(rounds - first)
    assert kernel.round == rounds
    _assert_states(kernel, starts)
    covers = kernel.cover_rounds.tolist()
    assert covers[:len(starts)] == [ring_run(s).cover(rounds) for s in starts]
    assert_symmetric(covers, len(starts), sources)


@row("kernel-cover")
def _kernel_cover(_) -> None:
    """``run_until_covered`` on the 280 dense starts, with images of every
    fourth."""
    for n, starts in dense_starts().items():
        budget = 8 * n * n + 64
        batch, sources = with_images(starts, 4)
        kernel = BatchRingKernel(n, *lanes(batch))
        covers = kernel.run_until_covered(budget).tolist()
        expected = [ring_run(s).cover(budget) for s in starts]
        assert covers[:len(starts)] == expected, n
        assert_symmetric(covers, len(starts), sources)


@row("kernel-cover/ratios", range(40))
def _kernel_cover_ratios(trial: int) -> None:
    """A block under 8, 64 or 16n² rounds at every ratio: covers, the
    round it stops at, and the states."""
    rng = np.random.default_rng(1000 + trial)
    n, starts = ring_block(rng)
    budget = int(rng.choice([8, 64, 16 * n * n]))
    expected = [ring_run(s).cover(budget) for s in starts]
    batch, sources = with_images(starts, 1)
    stops = set()
    for ratio in RATIOS:
        with patched(batch_ring, "COMPACT_RATIO", ratio):
            kernel = BatchRingKernel(n, *lanes(batch))
            covers = kernel.run_until_covered(budget, strict=False).tolist()
        assert covers[:len(starts)] == expected, ratio
        assert_symmetric(covers, len(starts), sources)
        stops.add(kernel.round)
        if ratio == 0.0:
            _assert_states(kernel, starts)
    assert len(stops) == 1


@row("kernel-cover/windows", (64, 45))
def _kernel_cover_windows(n: int) -> None:
    """256 lanes at every window, the budget cutting off a tenth: covers
    equal across windows and the reference's on every fourth lane, lanes
    covering at every offset inside a window, and states of ``run`` equal
    across windows and the reference's on every sixteenth lane."""
    rng = np.random.default_rng(4000 + n)
    starts = [start(rng, n, int(rng.integers(1, 17))) for _ in range(256)]
    full = BatchRingKernel(n, *lanes(starts)).run_until_covered(16 * n * n)
    budget = int(np.quantile(full, 0.9)) | 1
    expected = [ring_run(s).cover(budget) for s in starts[::4]]
    batch, sources = with_images(starts, 8)
    arrays = lanes(batch)
    for width in WINDOWS:
        with patched(BatchRingKernel, "_WINDOW", width):
            covers = BatchRingKernel(n, *arrays).run_until_covered(
                budget, strict=False
            ).tolist()
            kernel = BatchRingKernel(n, *arrays)
        if width == 1:
            first = covers
            covered = np.array([c for c in covers[:256] if c >= 0])
            assert covered.size < 256
        assert covers == first, width
        assert covers[:256:4] == expected, width
        assert_symmetric(covers, 256, sources)
        assert set((covered - 1) % width) == set(range(width))
        kernel.run(budget)
        states = [
            (kernel.directions_lane(b), kernel.counts_lane(b).tolist())
            for b in range(256)
        ]
        if width == 1:
            ran = states
            _assert_states(kernel, starts[::16], range(0, 256, 16))
        assert states == ran, width


@row("compaction")
def _compaction(_) -> None:
    """Both drivers at ``COMPACT_RATIO`` 0, 0.3 and 1: limit cycles of 40
    family starts, and covers of lone agents beside k = 16 lanes, which
    cover first and are dropped (a dropped lane keeps its cover)."""
    n = 32
    budget = 16 * n * n + 1024
    starts, _ = mixed_cover_block(n)
    expected = [ring_run(s).cover(budget) for s in starts]
    batch, sources = with_images(starts, 1)
    for ratio in (0.0, 0.3, 1.0):
        with patched(batch_ring, "COMPACT_RATIO", ratio):
            assert_limits(n, family_starts(n)[:40], 4)
            kernel = BatchRingKernel(n, *lanes(batch))
            covers = kernel.run_until_covered(budget).tolist()
        assert covers[:len(starts)] == expected, ratio
        assert_symmetric(covers, len(starts), sources)
    # At ratio 1 the k = 16 lane 1 was dropped after its first window:
    # its state is gone, its cover round is not.
    with pytest.raises(ValueError, match="not held"):
        kernel.positions(1)
    assert int(kernel.cover_rounds[1]) == expected[1] > 0


# ---- sparse covers: the closed form and the straight-run stepper -------
@row("single-agent")
def _single_agent(_) -> None:
    """The closed form and the stepper on lone agents, with images, at a
    generous budget, at the cover and one round short."""
    for n, starts in single_starts().items():
        budget = 8 * n * n + 64
        batch, sources = with_images(starts, 1)
        expected = [ring_run(s).cover(budget) for s in starts]
        ptr, cnt = lanes(batch)
        for path in (single_agent_covers, sparse_ring_covers):
            covers = path(n, ptr, cnt, budget).tolist()
            assert covers[:len(starts)] == expected, (n, path)
            assert_symmetric(covers, len(starts), sources)
        for lane, cover in enumerate(expected):
            one = (ptr[lane:lane + 1], cnt[lane:lane + 1])
            assert single_agent_covers(n, *one, cover).tolist() == [cover]
            assert single_agent_covers(n, *one, cover - 1).tolist() == [-1]


def _sparse_rows(starts, shortest: int, every: int = 1) -> None:
    """Per size, a generous budget, with images of every sixteenth start;
    every ``every``-th start also alone at its cover and one round
    short."""
    by_size: dict[int, list[Start]] = {}
    for s in starts:
        by_size.setdefault(s.n, []).append(s)
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for n, group in by_size.items():
            budget = 16 * n * n + 1024
            batch, sources = with_images(group, 16)
            covers = sparse_ring_covers(n, *lanes(batch), budget).tolist()
            expected = [ring_run(s).cover(budget) for s in group]
            assert covers[:len(group)] == expected, n
            assert_symmetric(covers, len(group), sources)
            for s, cover in list(zip(group, covers))[::every]:
                ptr, cnt = lanes([s])
                tight = sparse_ring_covers(n, ptr, cnt, cover).tolist()
                short = sparse_ring_covers(n, ptr, cnt, cover - 1).tolist()
                assert (tight, short) == ([cover], [-1]), s


@row("sparse")
def _sparse(_) -> None:
    """The stepper on the 2,046 sparse starts at ``_SHORTEST_JUMP`` 8."""
    _sparse_rows(sparse_starts(), 8)


@row("sparse/every-jump")
def _sparse_every_jump(_) -> None:
    """Every other sparse start at ``_SHORTEST_JUMP`` 1, every jump the
    bounds allow; every eighth of those at the two tight budgets too."""
    _sparse_rows(sparse_starts()[::2], 1, every=8)


@row("general/ring")
def _general_ring(_) -> None:
    """The CSR kernel with every fourth sparse start as a lane of
    ``ring_graph(n)``."""
    starts = sparse_starts()[::4]
    batch, sources = with_images(starts, 8)
    csrs = {n: ring_graph(n).to_csr() for n in {s.n for s in starts}}
    covers = batch_general_covers([
        (
            csrs[s.n],
            ring_pointers_to_ports(s.directions),
            s.agents,
            16 * s.n * s.n + 1024,
        )
        for s in batch
    ]).tolist()
    expected = [ring_run(s).cover(16 * s.n * s.n + 1024) for s in starts]
    assert covers[:len(starts)] == expected
    assert_symmetric(covers, len(starts), sources)


# ---- limit cycles and return gaps --------------------------------------
def _assert_lock_in(n: int, starts, cycles) -> None:
    """Single-agent lock-in within 2|E|·D = 2n·⌊n/2⌋ rounds, into the
    Eulerian cycle of period 2n (Yanovski et al., the paper's [27])."""
    for lane, s in enumerate(starts):
        if s.k == 1:
            assert int(cycles.periods[lane]) == 2 * n, s
            assert int(cycles.preperiods[lane]) <= 2 * n * (n // 2), s


def assert_limits(n: int, starts, every: int = 0, **kwargs) -> None:
    """Brent's pipeline and the gap scan on ``starts`` (and, with
    ``every``, images of every ``every``-th) equal the reference."""
    batch, sources = (list(starts), [])
    if every:
        batch, sources = with_images(starts, every)
    cycles = batch_limit_cycles(n, *lanes(batch), 16 * n * n + 1024, **kwargs)
    worst, best = batch_return_gaps(n, cycles)
    got = list(zip(
        cycles.preperiods.tolist(),
        cycles.periods.tolist(),
        worst.tolist(),
        best.tolist(),
    ))
    for lane, s in enumerate(starts):
        ref = ring_limit(s)
        want = (ref.preperiod, ref.period, ref.worst, ref.best)
        assert got[lane] == want, s
        rows = (
            tuple(cycles.pointers[lane].tolist()),
            tuple(cycles.counts[lane].tolist()),
        )
        assert rows == (ref.directions, ref.counts), s
    assert_symmetric(got, len(starts), sources)
    _assert_lock_in(n, batch, cycles)


@row("limit")
def _limit(_) -> None:
    """The pipeline on the 540 family starts at n = 12, 23 and 32, with
    images of every third."""
    for n in (12, 23, 32):
        assert_limits(n, family_starts(n), 3)


@row("limit/int16")
def _limit_int16(_) -> None:
    """Counts past 126 (up to 300) escalate to int16; fingerprints and
    steps stay exact."""
    rng = np.random.default_rng(126)
    for n, k in ((24, 126), (24, 127), (24, 200), (37, 130), (13, 300)):
        s = start(rng, n, k, "random")
        dtype = np.int8 if s.k <= 126 else np.int16
        assert lane_block(s.n, *lanes([s])).cnt.dtype == dtype
        assert_limits(s.n, [s], 1)


@row("limit/zero-weights", ["zero"])
@row("limit/count-blind-weights", ["count-blind"])
def _limit_weights(kind: str) -> None:
    """Degenerate fingerprint weights force collisions that the byte-exact
    confirmation refutes: all zero (every round a hit), or count-blind
    (states differing in counts alone share a fingerprint)."""
    rng = np.random.default_rng(5)
    for n in (12, 23):
        words = fingerprint_words(n)
        zero = np.zeros(words, np.uint64)
        blind = rng.integers(0, 2**64, size=words, dtype=np.uint64)
        weights = (zero if kind == "zero" else blind, zero)
        starts = family_starts(n)[::7]
        assert_limits(n, starts, 3, _fingerprint_weights=weights)


@row("limit/budgets", range(30))
def _limit_budgets(trial: int) -> None:
    """Blocks at every ratio, under 40 rounds (a third of them) or 64n²,
    under 1, 7, 9 and 41 (off the 8-round grid), and under each lane's
    search length and one less: -1, with the input rows, exactly where
    the doubling search does not fit, so each lane resolves at its own
    search length and not one round short of it."""
    rng = np.random.default_rng(3000 + trial)
    n, starts = ring_block(rng, max_n=24, max_lanes=5)
    refs = [ring_limit(s) for s in starts]
    searches = [brent_rounds(ref.preperiod, ref.period) for ref in refs]
    budgets = {40 if trial % 3 == 0 else 64 * n * n, 1, 7, 9, 41}
    budgets.update(b for rounds in searches for b in (rounds, rounds - 1))
    batch, sources = with_images(starts, 1)
    ptr, cnt = lanes(batch)
    for budget in sorted(budgets - {0}):
        fits = [rounds <= budget for rounds in searches]
        expected = [
            (ref.preperiod, ref.period) if fit else (-1, -1)
            for ref, fit in zip(refs, fits)
        ]
        for ratio in RATIOS:
            with patched(batch_ring, "COMPACT_RATIO", ratio):
                cycles = batch_limit_cycles(
                    n, ptr, cnt, budget, strict=False
                )
            got = list(zip(
                cycles.preperiods.tolist(), cycles.periods.tolist()
            ))
            assert got[:len(starts)] == expected, (trial, budget, ratio)
            assert_symmetric(got, len(starts), sources)
            cut = np.flatnonzero(cycles.periods < 0)
            assert (cycles.pointers[cut] == ptr[cut]).all()
            assert (cycles.counts[cut] == cnt[cut]).all()


def _packed_after(n: int, starts, rounds: np.ndarray) -> np.ndarray:
    """The packed rows of each start stepped its own number of rounds."""
    order = np.argsort(-rounds, kind="stable")
    block = lane_block(n, *lanes([starts[i] for i in order]))
    for t in range(int(rounds.max(initial=0))):
        block.step_prefix(int(np.count_nonzero(rounds[order] > t)))
    packed = np.empty_like(block.pack())
    packed[order] = block.pack()
    return packed


def assert_cycles_hold(n: int, starts, cycles) -> None:
    """No reference run: each lane's cycle-start rows are the input
    stepped ``preperiod`` rounds and first recur after ``period`` rounds
    (so after no proper divisor of it), and the input stepped
    ``preperiod - 1`` rounds does not recur ``period`` rounds later (so
    the cycle starts no sooner)."""
    mu, lam = cycles.preperiods, cycles.periods
    block = lane_block(n, cycles.pointers, cycles.counts)
    cycle = block.pack()
    np.testing.assert_array_equal(cycle, _packed_after(n, starts, mu))
    before = _packed_after(n, starts, np.maximum(mu - 1, 0))
    # The state at round mu - 1 + lam, taken while the rows step once
    # round their cycle.
    late = cycle.copy()
    first = np.zeros_like(lam)
    for t in range(1, int(lam.max()) + 1):
        block.step_all()
        now = block.pack()
        late[lam - 1 == t] = now[lam - 1 == t]
        back = (now == cycle).all(axis=1) & (first == 0)
        first[back] = t
    assert first.tolist() == lam.tolist()
    recur = (late == before).all(axis=1)
    assert not recur[mu > 0].any(), np.flatnonzero(recur & (mu > 0))


@row("limit/self-check")
def _limit_self_check(_) -> None:
    """At n = 64 and 128, where the reference is too slow for this
    suite: the stabilization scenario's families at k = 4 and seeded
    random starts of 1 to n/2 agents hold :func:`assert_cycles_hold`."""
    rng = np.random.default_rng(31)
    families = [
        (family.placement, family.pointer)
        for family in scenario("stabilization").families
    ]
    for n in (64, 128):
        starts = [start(rng, n, 4, *family) for family in families]
        starts += [
            start(rng, n, int(k)) for k in rng.integers(1, n // 2, size=6)
        ]
        cycles = batch_limit_cycles(n, *lanes(starts), 16 * n * n + 1024)
        assert_cycles_hold(n, starts, cycles)


@row("lock-in")
def _lock_in(_) -> None:
    """No reference run: every k = 1 lane of ``batch_limit_cycles`` has
    period exactly 2n and preperiod at most 2·n·⌊n/2⌋."""
    rng = np.random.default_rng(27)
    pointings = ["random", "one-way"] * 4 + list(POINTERS)
    for n in (3, 4, 5, 6, 7, 8, 11, 16, 23, 32, 47, 64):
        starts = [start(rng, n, 1, "uniform", p) for p in pointings]
        budget = 16 * n * n + 1024
        cycles = batch_limit_cycles(n, *lanes(starts), budget)
        _assert_lock_in(n, starts, cycles)


# ---- general graphs and walks ------------------------------------------
def _general(tail: int) -> None:
    """The CSR kernel on the 160 lanes, every graph in one kernel, at
    ``SCALAR_TAIL_PAIRS`` ``tail``: covers and final states."""
    starts = general_starts()
    with patched(batch_general, "SCALAR_TAIL_PAIRS", tail):
        kernel = BatchGeneralKernel([s.lane() for s in starts])
        covers = kernel.run_until_covered(strict=False)
    for lane, s in enumerate(starts):
        ports, counts = (a.tolist() for a in kernel.lane_state(lane))
        got = (int(covers[lane]), tuple(ports), tuple(counts))
        assert got == general_run(s), (lane, s)


row(
    "general",
    (0, 32, 10**9),
    ids=("vector-only", "crossover", "scalar-only"),
)(_general)
row("general/default-tail", [batch_general.SCALAR_TAIL_PAIRS])(_general)


@row("general/planned")
def _general_planned(_) -> None:
    """A planned chunk of ``general_instance`` cells on three graphs:
    covers."""
    cells, expected = [], []
    for name in ("torus5", "lollipop54", "star5"):
        g = graph(name)
        for k in (1, 2, 9):
            for seed in range(3):
                agents, ports = general_instance(g, k, seed)
                cell = GeneralRotorCell.from_graph(g, agents, ports, 50_000)
                cells.append(cell)
                lane = GeneralStart(
                    name, False, tuple(ports), tuple(agents), 50_000
                )
                expected.append({"cover": general_run(lane)[0]})
    (payload,) = _plan_chunks(cells)
    results = dict(compute_chunk(payload))
    assert [results[cell.config_hash] for cell in cells] == expected


def _assert_walks(n: int, walks, budget: int) -> None:
    batch = BatchRingWalks(n, [WalkLane(w.positions, w.seed) for w in walks])
    covers = batch.run_until_covered(budget, strict=False)
    for lane, w in enumerate(walks):
        got = (
            int(covers[lane]),
            tuple(batch.first_visit[lane].tolist()),
            tuple(batch.positions_lane(lane)),
        )
        assert got == walk_run(w, budget), w


@row("walk")
def _walk(_) -> None:
    """The walk kernel on 120 lanes: covers, first visits and positions,
    seed for seed."""
    groups: dict[int, list[Walk]] = {}
    for w in walk_starts():
        groups.setdefault(w.n, []).append(w)
    for n, walks in groups.items():
        _assert_walks(n, walks, 64 * n * n)


@row("walk/fusion", range(30))
def _walk_fusion(trial: int) -> None:
    """Walk lanes at every ``FUSE_ROUNDS``, for 48 rounds (a partial
    block) or 20n²."""
    rng = np.random.default_rng(4000 + trial)
    n = int(rng.integers(5, 24))
    walks = []
    for _ in range(int(rng.integers(2, 5))):
        positions = rng.integers(0, n, size=int(rng.integers(1, 4)))
        walks.append(Walk(n, tuple(positions.tolist()),
                          int(rng.integers(2**31))))
    budget = int(rng.choice([48, 20 * n * n]))
    for fuse in FUSES:
        with patched(batch_walk, "FUSE_ROUNDS", fuse):
            _assert_walks(n, walks, budget)


# ---- the general engine against the ring and path engines --------------
@functools.cache
def engine_starts(path: bool) -> tuple[tuple[Start, int, int], ...]:
    """60 ring (or path) starts, n up to 32, k 1-6, 1-120 rounds and a
    hold seed."""
    rng = np.random.default_rng(31 + path)
    out = []
    for _ in range(60):
        n = int(rng.integers(2 if path else 3, 33))
        s = start(rng, n, int(rng.integers(1, 7)))
        out.append((s, int(rng.integers(1, 121)), int(rng.integers(2**20))))
    return tuple(out)


def _general_engine(s: Start, path: bool) -> MultiAgentRotorRouter:
    if not path:
        ports = ring_pointers_to_ports(s.directions)
        return MultiAgentRotorRouter(ring_graph(s.n), ports, s.agents)
    # Interior nodes use the ring convention (port 0 leads right); an end
    # has one port.
    ports = [
        0 if v in (0, s.n - 1) or d == 1 else 1
        for v, d in enumerate(s.directions)
    ]
    return MultiAgentRotorRouter(path_graph(s.n), ports, s.agents)


@row("engines/ring", ["ring"])
@row("engines/holds", ["holds"])
@row("engines/path", ["path"])
def _engines_lockstep(kind: str) -> None:
    """The general engine on ring and path graphs against the ring and
    path engines: moves and positions every round (on rings also under
    random holds), and the ring's counters and pointers."""
    path, holds = kind == "path", kind == "holds"
    for s, rounds, seed in engine_starts(path)[:30 if holds else 60]:
        if holds:
            rounds = min(rounds, 40)
        steps, ptr, visits, exits = engine_moves(
            s, rounds, path, seed if holds else None
        )
        general = _general_engine(s, path)
        for held, moves, positions in steps:
            assert tuple(sorted(general.step(held))) == moves, s
            assert tuple(general.positions()) == positions, s
        if kind == "ring":
            assert tuple(general.visit_counts.tolist()) == visits, s
            assert tuple(general.exit_counts.tolist()) == exits, s
            bits = tuple(1 if p == 0 else -1 for p in general.pointers)
            assert bits == ptr, s


@row("engines/ring-cover", ["ring"])
@row("engines/path-cover", ["path"])
def _engines_cover(kind: str) -> None:
    """The general engine's cover rounds on ring and path graphs."""
    path = kind == "path"
    for s, _, _ in engine_starts(path)[:30]:
        budget = 8 * s.n * s.n + 64
        want = path_cover(s, budget) if path else ring_run(s).cover(budget)
        assert _general_engine(s, path).run_until_covered(budget) == want, s


# ---- trajectories ------------------------------------------------------
#: Trajectory rows run at ``batch_ring._SHORTEST_JUMP`` 8 and 1.
SHORTEST = {"shards": (8, 1), "ids": ("shortest8", "shortest1")}
DEPLOYMENTS = ((120, 4), (200, 6), (300, 6), (400, 6))


def ring_trajectory(s: Start) -> Trajectory:
    (ring,) = ring_trajectories(s.n, *lanes([s]), True)
    return ring


def path_trajectory(s: Start) -> Trajectory:
    bits = bytearray(d == 1 for d in s.directions)
    return Trajectory(s.n, bits, dict(Counter(s.agents)), path=True)


@row("trajectory/ring", **SHORTEST)
def _trajectory_ring(shortest: int) -> None:
    """Ring runs with stops, tracked: state, flags and cover."""
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for s in ring_starts(20261019, 60):
            rng = np.random.default_rng(s.n * s.k)
            script = []
            for _ in range(3):
                rounds = int(rng.integers(1, 4 * s.n))
                stop = int(rng.choice([-1, 0, rng.integers(0, s.n)]))
                script.append((rounds, stop))
            ring = ring_trajectory(s)
            expected = ring_script(s, tuple(script))
            for (rounds, stop), want in zip(script, expected):
                ring.run(rounds, stop)
                flags = tuple(map(bool, ring.propagation))
                assert (engine_state(ring), flags) == want, s


@row("trajectory/cover", **SHORTEST)
def _trajectory_cover(shortest: int) -> None:
    """A ring run with a cover stop ends at the reference cover round."""
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for s in ring_starts(7, 30):
            budget = 4 * s.n * s.n
            ring = ring_trajectory(s)
            if ring.unvisited:
                ring.run(budget, stop=0)
            cover = ring_run(s).cover(budget)
            assert ring.round == ring.cover_round == cover, s
            assert ring.unvisited == 0


@row("trajectory/path", **SHORTEST)
def _trajectory_path(shortest: int) -> None:
    """Path runs stopping at s unvisited nodes, then the rank maxima over
    a window."""
    rng = np.random.default_rng(2013)
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for i in range(60):
            s = path_start(rng, i)
            draws = np.random.default_rng(s.n + 7 * s.k)
            stop = int(draws.integers(-1, s.n))
            script = tuple(
                (int(draws.integers(1, 4 * s.n)), stop) for _ in range(2)
            )
            window = int(draws.integers(1, 4 * s.n))
            states, maxima, final = path_script(s, script, window)
            path = path_trajectory(s)
            for (rounds, stop), state in zip(script, states):
                path.run(rounds, stop)
                assert engine_state(path) == state, s
            got = [0] * s.k
            path.run(window, maxima=got)
            assert (tuple(got), engine_state(path)) == (maxima, final), s


@row("trajectory/walks")
def _trajectory_walks(_) -> None:
    """Lone walks against ``hold_all_except_one_at`` steps, targets on
    either side."""
    rng = np.random.default_rng(15)
    for i in range(60):
        s = path_start(rng, i)
        script = tuple(
            (
                int(rng.integers(2**20)),
                int(rng.integers(0, s.n)),
                int(rng.integers(0, 2 * s.n * s.n)),
            )
            for _ in range(4)
        )
        path = path_trajectory(s)
        expected = walk_script(s, script)
        for (rank, target, budget), (used, state) in zip(script, expected):
            occupied = sorted(path.occupied)
            walked = path.walk(occupied[rank % len(occupied)], target, budget)
            assert walked == used, s
            assert used < 0 or engine_state(path) == state, s


DEPLOYMENT_CASES = [(s, case) for s in (8, 1) for case in DEPLOYMENTS]


@row(
    "trajectory/deployment",
    DEPLOYMENT_CASES,
    ids=[
        f"shortest{s}-case{DEPLOYMENTS.index(case)}"
        for s, case in DEPLOYMENT_CASES
    ],
)
def _trajectory_deployment(shard) -> None:
    """The Theorem 1 deployment against its hold construction on paths."""
    shortest, case = shard
    expected = deployment(*case)
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        trace = deployments.run_theorem1_deployment(*case)
    assert deployment_summary(trace) == expected


@row("trajectory/lemma5", **SHORTEST)
def _trajectory_lemma5(shortest: int) -> None:
    """No reference run: Lemma 5, at most two agents a node stays so."""
    rng = np.random.default_rng(5)
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for s in ring_starts(55, 60):
            ring = ring_trajectory(s)
            settled = False
            while ring.round < 6 * s.n:
                ring.run(int(rng.integers(1, 9)))
                crowded = max(ring.occupied.values()) > 2
                assert not (settled and crowded), s
                settled = settled or not crowded


def _partitioned(n: int, snap) -> bool:
    """The domains and the unvisited nodes partition the ring (Lemma 4)."""
    nodes = [v for d in snap.domains for v in d.nodes(n)]
    return sorted(nodes + list(snap.unvisited)) == list(range(n))


@row("trajectory/lemma4", **SHORTEST)
def _trajectory_lemma4(shortest: int) -> None:
    """No reference run: Lemma 4 on 2,000 and more ``trace_domains``
    snapshots."""
    snapshots = 0
    with patched(batch_ring, "_SHORTEST_JUMP", shortest):
        for s in ring_starts(44, 30):
            trace = trace_domains(s.n, s.agents, s.directions, 8 * s.n, 3)
            assert all(_partitioned(s.n, snap) for snap in trace.snapshots), s
            snapshots += len(trace.snapshots)
    assert snapshots >= 2000


# ---- domains -----------------------------------------------------------
def _assert_census(blocks, nonempty: bool = False) -> None:
    """``border_type_census`` of each ``(n, starts, burn_in, rounds)``
    block, lane by lane, against the serial census."""
    for n, starts, burn_in, rounds in blocks:
        expected = [census(s, burn_in, rounds) for s in starts]
        configurations = [(s.agents, s.directions) for s in starts]
        got = border_type_census(n, configurations, burn_in, rounds)
        assert got == expected
        assert not nonempty or all(sum(c.values()) > 0 for c in expected)


@row("census")
def _census(_) -> None:
    """100 blocks of paired starts, n 3-40, burn-ins from 0."""
    rng = make_rng(2013)
    blocks = []
    for _ in range(100):
        n = int(rng.integers(3, 41))
        starts = [domain_start(rng, n) for _ in range(int(rng.integers(1, 5)))]
        burn_in = int(rng.integers(0, 5 * n + 1))
        blocks.append((n, starts, burn_in, int(rng.integers(1, 3 * n + 1))))
    _assert_census(blocks)


@row("census/figure1")
def _census_figure1(_) -> None:
    """Figure 1's configurations: equally spaced and random distinct
    agents, k = 4, 8 and 16 on a 64-ring, no census empty."""
    n = 64
    starts = []
    for k in (4, 8, 16):
        for agents in (
            placement.equally_spaced(n, k),
            placement.random_nodes(n, k, seed=k, distinct=True),
        ):
            directions = pointers.ring_negative(n, agents)
            starts.append(Start(n, tuple(directions), tuple(agents)))
    _assert_census([(n, starts, 10 * n, 4 * n)], nonempty=True)


@row("trace")
def _trace(_) -> None:
    """``trace_domains`` on 150 stacked or paired starts, sampled every
    1-4 rounds."""
    rng = make_rng(2015)
    for _ in range(150):
        n = int(rng.integers(3, 49))
        s = domain_start(rng, n, stacked=rng.random() < 0.3)
        args = (
            int(rng.integers(1, 6 * n + 1)),
            int(rng.integers(1, 5)),
            bool(rng.integers(0, 2)),
        )
        trace = trace_domains(n, s.agents, s.directions, *args)
        got = (trace.rounds, trace.snapshots, trace.k)
        assert got == (*serial_trace(s, *args), s.k), s


@row("snapshots")
def _snapshots(_) -> None:
    """``domain_snapshots`` row by row after 0 to 4n rounds, exceptions
    too."""
    rng = make_rng(2016)
    for _ in range(150):
        n = int(rng.integers(3, 41))
        s = domain_start(rng, n, stacked=rng.random() < 0.3)
        rounds = int(rng.integers(0, 4 * n + 1))
        expected, round_, rows = snapshot_after(s, rounds)
        if not isinstance(expected, type):
            expected = [expected]
        assert outcome(domain_snapshots, *rows, [round_]) == expected, s


@row("snapshots/shared-anchor")
def _snapshots_shared(_) -> None:
    """States with both agents on one node: the partition, the snapshots
    and the border counts."""
    rng = make_rng(2024)
    states = 0
    for _ in range(60):
        s = start(rng, int(rng.integers(5, 40)), 2)
        for snap, round_, rows in shared_anchor_states(s):
            assert _partitioned(s.n, snap), s
            assert domain_snapshots(*rows, [round_]) == [snap], s
            tally = Counter(classify_borders(snap))
            want = [tally[t] for t in BorderType]
            assert border_counts(*rows)[0].tolist() == want, s
            states += 1
    assert states >= 100


@row("border-counts")
def _border_counts(_) -> None:
    """Snapshots and border counts of 400 arbitrary blocks, each row alone
    too."""
    rng = make_rng(2019)
    for _ in range(400):
        block = arbitrary_block(rng)
        rows = len(block[0])
        snapshots = domain_snapshots(*block, range(rows))
        tallies = border_counts(*block)
        for r in range(rows):
            expected = oracle_snapshot(*(a[r] for a in block), r)
            tally = Counter(classify_borders(expected))
            assert snapshots[r] == expected
            assert tallies[r].tolist() == [tally[t] for t in BorderType]
        alone = [
            border_counts(*(a[r:r + 1] for a in block)) for r in range(rows)
        ]
        assert np.array_equal(np.concatenate(alone), tallies)


@row("profile")
def _profile(_) -> None:
    """``final_profile_vs_lemma13``: 25 runs at log-uniform budgets, both
    outcomes."""
    rng = make_rng(2017)
    for _ in range(25):
        n = int(rng.integers(20, 201))
        k = int(rng.integers(4, 10))
        budget = int(2.0 ** rng.uniform(0, np.log2(n * n)))
        expected = profile(n, k, budget)
        got = outcome(final_profile_vs_lemma13, n, k, budget)
        if isinstance(expected, type):
            assert got is expected
        else:
            assert all(map(np.array_equal, got, expected))


@row("lemma12")
def _lemma12(_) -> None:
    """``lemma12_adjacent_difference`` after 0 to 6n rounds, exceptions
    too."""
    rng = make_rng(2018)
    for _ in range(30):
        n = int(rng.integers(3, 41))
        s = domain_start(rng, n, stacked=rng.random() < 0.3)
        rounds = int(rng.integers(0, 6 * n + 1))
        expected = snapshot_after(s, rounds)[0]
        got = outcome(
            lemma12_adjacent_difference, n, s.agents, s.directions, rounds
        )
        if isinstance(expected, type):
            assert got is expected
        elif expected.unvisited:
            assert got is RuntimeError
        else:
            assert got == expected.max_adjacent_lazy_difference()


# ---- measurement plans, run_cells and the store ------------------------
def _limit_fields(value) -> tuple:
    return value.preperiod, value.period, value.worst_gap, value.best_gap


@row("plan")
def _plan(_) -> None:
    """``MeasurementPlan`` at both backends on 80 cover, 30 limit and 16
    walk requests over the named families: the oracle's values."""
    rng = make_rng(20260728)
    plans = MeasurementPlan(backend="batch"), MeasurementPlan(
        backend="reference"
    )
    placings, pointings = sorted(PLACEMENTS), sorted(POINTERS)
    requests, walks = [], []
    for index in range(110):
        sizes = (8, 12, 16, 24, 32) + ((48,) if index < 80 else ())
        n = int(rng.choice(sizes))
        k = int(rng.integers(1, 7))
        placing = placings[int(rng.integers(len(placings)))]
        pointing = pointings[int(rng.integers(len(pointings)))]
        s = start(rng, n, k, placing, pointing)
        if index < 80:
            handles = [p.rotor_cover(n, s.agents, s.directions) for p in plans]
            want = ring_run(s).cover(8 * n * n + 64)
            requests.append((handles, int, want))
            continue
        ref = ring_limit(s)
        handles = [
            p.rotor_return_exact(n, s.agents, s.directions) for p in plans
        ]
        want = (ref.preperiod, ref.period, ref.worst, ref.best)
        requests.append((handles, _limit_fields, want))
    for index in range(16):
        n = int(rng.choice((8, 16, 24)))
        agents = placement.random_nodes(
            n, int(rng.integers(1, 5)), seed=int(rng.integers(2**31))
        )
        repetitions = int(rng.integers(1, 4))
        base = derive_seed(7, "equiv-walk", index)
        seeds = [derive_seed(base, "cover", rep) for rep in range(repetitions)]
        want = tuple(
            walk_run(Walk(n, tuple(agents), seed), 64 * n * n)[0]
            for seed in seeds
        )
        walks.append([p.walk_cover(n, agents, repetitions, base)
                      for p in plans])
        requests.append((walks[-1], lambda v: v.samples, want))
    for plan in plans:
        plan.execute()
    for handles, read, want in requests:
        assert [read(h.value) for h in handles] == [want, want]
    for batch, reference in ((a.value, b.value) for a, b in walks):
        summary = (batch.mean, batch.ci_low, batch.ci_high)
        assert summary == (reference.mean, reference.ci_low, reference.ci_high)


@row("plan/general")
def _plan_general(_) -> None:
    """``rotor_cover_general`` at both backends on a ring, a grid and a
    clique."""
    plans = MeasurementPlan(backend="batch"), MeasurementPlan(
        backend="reference"
    )
    requests = []
    for index, name in enumerate(("ring24", "grid5", "clique12")):
        rng = make_rng(derive_seed(3, "general", index))
        g = graph(name)
        s = general_start(rng, name, 3, general_cover_budget(g))
        handles = [p.rotor_cover_general(g, s.agents, s.ports) for p in plans]
        requests.append((handles, s))
    for plan in plans:
        plan.execute()
    for handles, s in requests:
        assert [h.value for h in handles] == [general_run(s)[0]] * 2


def every_cell_kind() -> list[tuple[Any, dict | None]]:
    """Cells of every kind with the metrics the oracle owes them (None:
    only agreement across modes is checked): ring covers that route to
    the closed form, the sparse stepper and the dense kernel, limit
    cycles, sweep configs of both models, general cells, walk covers and
    walk gaps."""
    pairs: list[tuple[Any, dict | None]] = []
    for n, ks in ((16, (1, 1, 2, 3, 2, 8, 12, 20)), (24, (1, 5, 30))):
        for cell in ring_cells(n, ks, seed=n):
            pairs.append((cell, rotor_metrics(cell)))
    for s in family_starts(12)[::19]:
        cell = RotorCell(
            n=12,
            agents=s.agents,
            directions=s.directions,
            metrics=("stabilization", "return"),
            max_rounds=3328,
        )
        pairs.append((cell, rotor_metrics(cell)))
    for seed in range(3):
        config = SweepConfig(
            n=16,
            k=2 + seed,
            placement="random",
            pointer="random",
            seed=seed,
            metrics=("cover",),
            max_rounds=2112,
        )
        pairs.append((config, {"cover": oracle_cover(16, *config.build())}))
        walk = dataclasses.replace(
            config,
            k=2,
            pointer=WALK_POINTER,
            max_rounds=16384,
            model="walk",
            repetitions=2,
        )
        pairs.append((walk, None))
    for s in general_starts()[::16]:
        cover = general_run(s)[0]
        cell = GeneralRotorCell.from_graph(s.graph(), s.agents, s.ports,
                                           s.budget)
        pairs.append((cell, {"cover": cover if cover >= 0 else None}))
    for w in walk_starts()[:4]:
        seeds = (w.seed, w.seed + 1)
        budget = 64 * w.n * w.n
        samples = [
            walk_run(Walk(w.n, w.positions, seed), budget)[0]
            for seed in seeds
        ]
        cell = WalkCoverCell(
            n=w.n, agents=w.positions, seeds=seeds, max_rounds=budget
        )
        pairs.append((cell, {"cover_samples": samples}))
    for node in (0, 5):
        cell = WalkGapsCell(
            n=12, k=2, node=node, observation_rounds=600, burn_in=12,
            seed=node,
        )
        pairs.append((cell, None))
    return pairs


def _traced_run(cells, directory: str, name: str, **kwargs) -> tuple:
    """``run_cells`` traced: results, cached hashes, and the ``ring.*``
    and ``walk.*`` counters."""
    path = os.path.join(directory, f"{name}.jsonl")
    with trace_session(path):
        results, cached, report = run_cells(cells, **kwargs)
    assert report.clean
    counters = load_manifest(path)["counters"]
    kernels = {
        key: value for key, value in counters.items()
        if key.startswith(("ring.", "walk."))
    }
    return results, cached, kernels


@row("run-cells")
def _run_cells(_) -> None:
    """``run_cells`` over every cell kind at jobs 1 and 2, with no cache, a
    cold cache, a warm cache and a partial store: the oracle's metrics,
    equal results in every mode, and equal ``ring.*`` and ``walk.*``
    counters across jobs (the ``executor.*`` ones differ with the pool)."""
    pairs = every_cell_kind()
    cells = [cell for cell, _ in pairs]
    hashes = {cell.config_hash for cell in cells}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "CHUNK_LANES", 3)
        patch.setattr(executor, "CHUNK_ELEMENTS", 0)
        serial, cached, counters = _traced_run(cells, tmp, "serial", jobs=1)
        assert not cached and set(serial) == hashes
        assert counters["ring.lanes"] > 0 and counters["walk.lanes"] > 0
        for cell, want in pairs:
            if want is not None:
                got = serial[cell.config_hash]
                assert {key: got[key] for key in want} == want
        parallel = _traced_run(cells, tmp, "parallel", jobs=2)
        assert parallel == (serial, set(), counters)
        cache = os.path.join(tmp, "c")
        for jobs, warm in ((1, set()), (2, hashes)):
            results, cached, report = run_cells(
                cells, jobs=jobs, cache_dir=cache
            )
            assert report.clean and (results, cached) == (serial, warm)
        partial = SqliteStore(os.path.join(tmp, "partial"))
        partial.put_many([(cell, serial[cell.config_hash])
                          for cell in cells[::3]])
        partial.close()
        results, cached, report = run_cells(
            cells, cache_dir=os.path.join(tmp, "partial")
        )
        assert report.clean and results == serial
        assert cached == {cell.config_hash for cell in cells[::3]}


@row("store", range(5))
def _store(trial: int) -> None:
    """Store round trips against a dict: random configs, a subset stored,
    all probed."""
    rng = np.random.default_rng(1000 + trial)
    pool = [
        SweepConfig(
            n=int(rng.choice((16, 24, 32))),
            k=int(rng.choice((2, 3, 4))),
            placement="random",
            pointer="random",
            seed=int(rng.integers(10_000)),
            metrics=("cover",),
            max_rounds=4096,
        )
        for _ in range(40)
    ]
    stored = [c for c in pool if rng.random() < 0.6]
    payloads = {
        c.config_hash: {"cover": int(rng.integers(10_000)), "n": c.n}
        for c in stored
    }
    with tempfile.TemporaryDirectory() as tmp:
        store = SqliteStore(tmp)
        store.put_many([(c, payloads[c.config_hash]) for c in stored])
        probe = [pool[i] for i in rng.permutation(len(pool))]
        found, statuses = store.lookup_many(probe)
        assert found == payloads and store.count() == len(payloads)
        assert statuses == {
            c.config_hash: "hit" if c.config_hash in payloads else "miss"
            for c in pool
        }
        store.close()


@row("run-cells/symmetry")
def _run_cells_symmetry(_) -> None:
    """No reference run: rotations and reflections change no ``run_cells``
    metric, on the sparse, dense and limit-cycle routes."""
    rng = np.random.default_rng(1613)
    routes = set()
    for _ in range(60):
        n = int(rng.integers(3, 49))
        s = start(rng, n, int(rng.integers(1, 2 * n + 1)))
        r = int(rng.integers(1, n))
        metrics = (("cover",), ("stabilization", "return"))[
            int(rng.integers(2))
        ]
        cells = [
            RotorCell(
                n=n,
                agents=image.agents,
                directions=image.directions,
                metrics=metrics,
                max_rounds=16 * n * n + 1024,
            )
            for image in (s, s.rotated(r), s.reflected())
        ]
        results, _, report = run_cells(cells)
        original, rotated, reflected = (
            results[cell.config_hash] for cell in cells
        )
        assert report.clean and rotated == original == reflected, (s, r)
        if metrics == ("cover",):
            assert original["cover"] is not None
            route = "sparse" if _prefer_sparse_covers(n, cells) else "dense"
            routes.add(route)
        else:
            assert set(original) == {
                "preperiod", "period", "worst_gap", "best_gap"
            }
            assert original["period"] is not None
            routes.add("limit")
    assert routes == {"sparse", "dense", "limit"}
