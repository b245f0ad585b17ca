"""Domain-evolution statistics: Lemma 12, Figure 1, §2.3 growth.

Steps single ring and path trajectories on flat per-node buffers and
samples domain snapshots at intervals (the Figure 1 census runs its
configurations as rows of one batched ring lane block instead), producing
the data series behind three reproduction targets:

* **Lemma 12** — once every lazy domain is reasonably large, adjacent
  lazy-domain sizes converge (eventually differing by <= 10);
* **Figure 1** — the borders between adjacent lazy domains are
  vertex-type or edge-type (with rare one-step transients);
* **§2.3** — from the all-on-one worst case, the covered region grows
  like sqrt(t) and domain sizes follow the ~1/i Lemma 13 profile.

The reference engines (:class:`repro.core.ring.RingRotorRouter` with
:class:`repro.core.domains.VisitTypeTracker` and
:func:`repro.core.domains.domain_snapshot`, and
:class:`repro.core.path.PathRotorRouter`) are the tests' oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.domains import (
    BorderType,
    DomainSnapshot,
    border_counts,
    domain_snapshots,
)
from repro.core.ring import RingRotorRouter
from repro.sweep.batch_ring import lane_block, lanes_from_configs

#: Sampled rounds handed to one array call: :func:`border_counts` in
#: :func:`border_type_census`, :func:`domain_snapshots` in
#: :func:`trace_domains`.  A block's temporaries are a few boolean
#: copies of its rows and their run ends, so larger blocks pay less
#: per-call overhead for little memory.  On a 2-core container,
#: Figure 1's census spends 0.25 s of CPU in ``border_counts`` with
#: 64-round blocks against 0.43-0.45 s with 8, and ``run_figure1``
#: peaks 4.2 MB above its starting RSS against 3.2 MB.
_BLOCK_ROUNDS = 64


@dataclass
class DomainTrace:
    """Sampled domain evolution of one rotor-router run."""

    n: int
    k: int
    rounds: list[int] = field(default_factory=list)
    snapshots: list[DomainSnapshot] = field(default_factory=list)

    def covered_sizes(self) -> list[int]:
        """Covered-region size (n - unvisited) at each sample."""
        return [self.n - len(s.unvisited) for s in self.snapshots]

    def lazy_size_matrix(self) -> list[list[int]]:
        return [s.lazy_sizes() for s in self.snapshots]

    def final(self) -> DomainSnapshot:
        if not self.snapshots:
            raise ValueError("trace holds no snapshots")
        return self.snapshots[-1]

    def growth_exponent(self, skip_fraction: float = 0.3) -> float:
        """Log-log slope of covered-region size vs round (expect ~0.5
        while the ring is uncovered, per §2.3)."""
        rounds = np.asarray(self.rounds, dtype=float)
        sizes = np.asarray(self.covered_sizes(), dtype=float)
        keep = (rounds > 0) & (sizes > 0)
        rounds, sizes = rounds[keep], sizes[keep]
        start = int(rounds.size * skip_fraction)
        if rounds.size - start < 2:
            raise ValueError("not enough samples for a growth fit")
        slope, _ = np.polyfit(np.log(rounds[start:]), np.log(sizes[start:]), 1)
        return float(slope)


class _Ring:
    """One k-agent ring trajectory on flat per-node buffers.

    ``ptr[v]`` is the neighbour node ``v``'s pointer leads to and
    ``other[v]`` its other neighbour, so a move needs no wrap-around
    and a flip is a swap.  ``counts`` maps occupied nodes to agent
    counts, so a round costs O(k), as in :class:`RingRotorRouter`.
    ``propagation[v]`` flags nodes whose most recent visit was a
    PROPAGATION (the only visit kind a domain snapshot reads): a lone
    arrival whose node's pointer, after the round, leads away from
    where the agent came from.  Takes the arguments
    :class:`RingRotorRouter` does.
    """

    def __init__(
        self, n: int, directions: Sequence[int], agents: Iterable[int]
    ) -> None:
        # The reference engine validates the arguments and lays out the
        # start; it is never stepped.
        start = RingRotorRouter(n, directions, agents, track_counts=False)
        self.n = n
        self.ptr = [(v + d) % n for v, d in enumerate(start.ptr)]
        self.other = [(v - d) % n for v, d in enumerate(start.ptr)]
        self.counts = start.counts
        self.visited = start.visited
        self.unvisited = start.unvisited
        self.propagation = bytearray(n)
        self._came = [0] * n
        self._clockwise = np.arange(1, n + 1) % n
        self.round = 0

    def run(self, rounds: int, stop_at_cover: bool = False) -> None:
        """Step ``rounds`` rounds, or until covered with ``stop_at_cover``
        (checked after each round, so at least one round runs)."""
        ptr, other, came = self.ptr, self.other, self._came
        visited, propagation = self.visited, self.propagation
        counts, unvisited = self.counts, self.unvisited
        stepped = 0
        while stepped < rounds:
            stepped += 1
            arrivals: dict[int, int] = {}
            for v, c in counts.items():
                p = ptr[v]
                came[p] = v
                if c == 1:
                    # One agent leaves along the pointer, which flips.
                    if p in arrivals:
                        arrivals[p] += 1
                    else:
                        arrivals[p] = 1
                    ptr[v] = other[v]
                    other[v] = p
                    continue
                via_pointer = (c + 1) >> 1
                if p in arrivals:
                    arrivals[p] += via_pointer
                else:
                    arrivals[p] = via_pointer
                q = other[v]
                came[q] = v
                if q in arrivals:
                    arrivals[q] += c - via_pointer
                else:
                    arrivals[q] = c - via_pointer
                if c & 1:
                    ptr[v] = q
                    other[v] = p
            for v, c in arrivals.items():
                if not visited[v]:
                    visited[v] = 1
                    unvisited -= 1
                propagation[v] = c == 1 and ptr[v] != came[v]
            counts = arrivals
            if stop_at_cover and not unvisited:
                break
        self.counts, self.unvisited = counts, unvisited
        self.round += stepped

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The configuration as the rows :func:`domain_snapshots` takes."""
        n = self.n
        counts = np.zeros(n, dtype=np.int64)
        counts[list(self.counts)] = list(self.counts.values())
        clockwise = np.fromiter(self.ptr, np.int64, n) == self._clockwise
        return (
            counts,
            clockwise,
            np.frombuffer(self.visited, dtype=bool).copy(),
            np.frombuffer(self.propagation, dtype=bool).copy(),
        )


def trace_domains(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    total_rounds: int,
    sample_every: int,
    stop_at_cover: bool = False,
) -> DomainTrace:
    """Run a k-agent ring rotor-router, sampling domain snapshots.

    Samples are only taken once domains are well defined (<= 2 agents
    per node); earlier sample points are skipped silently, which only
    matters for stacked initial placements.  The trajectory steps on
    flat buffers in O(k) per round, and sampled rounds are turned into
    snapshots :data:`_BLOCK_ROUNDS` at a time by
    :func:`domain_snapshots`; the result equals stepping
    :class:`RingRotorRouter` with a :class:`VisitTypeTracker` and
    taking :func:`domain_snapshot` at every sample.
    """
    if total_rounds < 1 or sample_every < 1:
        raise ValueError("total_rounds and sample_every must be positive")
    agents = list(agents)
    ring = _Ring(n, directions, agents)
    trace = DomainTrace(n=n, k=len(agents))
    rounds: list[int] = []
    rows: list[tuple[np.ndarray, ...]] = []

    def snapshot_block() -> None:
        columns = (np.stack(column) for column in zip(*rows))
        trace.snapshots.extend(domain_snapshots(*columns, rounds))
        trace.rounds.extend(rounds)
        rounds.clear()
        rows.clear()

    while ring.round < total_rounds:
        ring.run(
            min(
                sample_every - ring.round % sample_every,
                total_rounds - ring.round,
            ),
            stop_at_cover,
        )
        if ring.round % sample_every == 0 and max(ring.counts.values()) <= 2:
            rounds.append(ring.round)
            rows.append(ring.rows())
            if len(rows) == _BLOCK_ROUNDS:
                snapshot_block()
        if stop_at_cover and not ring.unvisited:
            break
    if rows:
        snapshot_block()
    return trace


def lemma12_adjacent_difference(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    rounds: int,
) -> int:
    """Max adjacent lazy-domain size difference after ``rounds`` rounds.

    Lemma 12 predicts this settles to at most ~10 once domains are
    established (the paper proves <= 10 for k >= 6 and domains >= 20k).
    """
    ring = _Ring(n, directions, agents)
    ring.run(rounds)
    (snapshot,) = domain_snapshots(
        *(row[None] for row in ring.rows()), [ring.round]
    )
    if snapshot.unvisited:
        raise RuntimeError(
            f"ring not covered after {rounds} rounds; increase the budget"
        )
    return snapshot.max_adjacent_lazy_difference()


def border_type_census(
    n: int,
    configurations: Sequence[tuple[Sequence[int], Sequence[int]]],
    burn_in: int,
    observation_rounds: int,
) -> list[Counter]:
    """Census of border types between lazy domains (Figure 1 data).

    Each configuration is an ``(agents, directions)`` pair on the
    n-ring.  After ``burn_in`` rounds, classify the borders at each of
    the next ``observation_rounds`` rounds, and return one Counter of
    :class:`BorderType` per configuration.  Figure 1's claim: borders
    are vertex-type or edge-type (transients are rare one-step events
    right after a first traversal).

    The configurations run together as the rows of one
    :class:`repro.sweep.batch_ring.LaneBlock`.  Visit kinds are one
    array update per round, and observed rounds are classified
    :data:`_BLOCK_ROUNDS` at a time by :func:`border_counts`, which
    finds every domain arc, lazy run and border by binary search over
    the run boundaries of each row, and equals
    :func:`classify_borders` of :func:`domain_snapshot` per round.
    Raises :class:`DomainError` when an observed round holds 3+ agents
    on a node.
    """
    if burn_in < 0 or observation_rounds < 0:
        raise ValueError("burn_in and observation_rounds must be non-negative")
    pointers, counts = lanes_from_configs(
        n, [(list(dirs), list(agents)) for agents, dirs in configurations]
    )
    ring = lane_block(n, pointers, counts)
    lanes = ring.rows
    visited = counts > 0
    propagation = np.zeros_like(visited)
    arrived = np.empty_like(visited)
    lone = np.empty_like(visited)
    lone_forward = np.empty_like(visited)
    block_counts = np.empty((_BLOCK_ROUNDS, lanes, n), ring.cnt.dtype)
    block_pointers = np.empty_like(block_counts)
    block_visited = np.empty((_BLOCK_ROUNDS, lanes, n), bool)
    block_propagation = np.empty_like(block_visited)
    totals = np.zeros((lanes, len(BorderType)), dtype=np.int64)

    def classify(samples: int) -> None:
        rows = samples * lanes
        tally = border_counts(
            block_counts[:samples].reshape(rows, n),
            block_pointers[:samples].reshape(rows, n),
            block_visited[:samples].reshape(rows, n),
            block_propagation[:samples].reshape(rows, n),
        )
        totals[...] += tally.reshape(samples, lanes, -1).sum(axis=0)

    samples = 0
    for t in range(burn_in + observation_rounds):
        ring.step_all()
        cnt, ptr, cw_exits = ring.cnt, ring.ptr, ring.fwd
        np.greater(cnt, 0, out=arrived)
        visited |= arrived
        # A lone arrival propagates iff the pointer it finds now points
        # the way it travelled: clockwise iff one agent left v-1 that way.
        np.equal(ptr[:, 1:], cw_exits[:, :-1], out=lone_forward[:, 1:])
        np.equal(ptr[:, 0], cw_exits[:, -1], out=lone_forward[:, 0])
        np.equal(cnt, 1, out=lone)
        lone_forward &= lone
        np.copyto(propagation, lone_forward, where=arrived)
        if t >= burn_in:
            block_counts[samples] = cnt
            block_pointers[samples] = ptr
            block_visited[samples] = visited
            block_propagation[samples] = propagation
            samples += 1
            if samples == _BLOCK_ROUNDS:
                classify(samples)
                samples = 0
    if samples:
        classify(samples)
    return [
        Counter({kind: int(c) for kind, c in zip(BorderType, row) if c})
        for row in totals
    ]


def _path_right_ends(
    n: int, k: int, rounds_budget: int, stop_unvisited: int
) -> list[int]:
    """Domain right ends of the Theorem 1 path run, frontier first.

    k agents start at the left endpoint of the n-node path with every
    pointer toward it.  The run steps until at most ``stop_unvisited``
    nodes are unvisited (or the budget is spent), then for ``4 n`` more
    rounds records the maximum of each rank's position, ranks sorted
    from the frontier inward: agents oscillate inside their domains,
    so these maxima are the domain right ends.  The buffers are laid
    out as in :class:`_Ring`; an endpoint's two neighbour slots both
    hold its one neighbour, so every agent there leaves through it and
    its pointer never changes, as in :class:`PathRotorRouter`.  No
    visit kinds are kept: the profile needs none, and keeping them
    would cost this loop about 40%.  Raises ``RuntimeError`` when the
    frontier has not passed node k when the window starts.
    """
    ptr = [v - 1 for v in range(n)]
    other = [v + 1 for v in range(n)]
    ptr[0] = 1
    other[n - 1] = n - 2
    counts = {0: k}
    visited = bytearray(n)
    visited[0] = 1
    unvisited = n - 1
    rounds_left = rounds_budget
    window = 0
    right_ends = [0] * k
    while True:
        if not window:
            if rounds_left == 0 or unvisited <= stop_unvisited:
                if max(counts) <= k:
                    raise RuntimeError("agents did not spread within the budget")
                window = 4 * n
            rounds_left -= 1
        arrivals: dict[int, int] = {}
        for v, c in counts.items():
            p = ptr[v]
            if c == 1:
                if p in arrivals:
                    arrivals[p] += 1
                else:
                    arrivals[p] = 1
                ptr[v] = other[v]
                other[v] = p
                continue
            via_pointer = (c + 1) >> 1
            if p in arrivals:
                arrivals[p] += via_pointer
            else:
                arrivals[p] = via_pointer
            q = other[v]
            if q in arrivals:
                arrivals[q] += c - via_pointer
            else:
                arrivals[q] = c - via_pointer
            if c & 1:
                ptr[v] = q
                other[v] = p
        for v in arrivals:
            if not visited[v]:
                visited[v] = 1
                unvisited -= 1
        counts = arrivals
        if window:
            rank = 0
            for v in sorted(counts, reverse=True):
                for _ in range(counts[v]):
                    if v > right_ends[rank]:
                        right_ends[rank] = v
                    rank += 1
            window -= 1
            if not window:
                return right_ends


def final_profile_vs_lemma13(
    n: int,
    k: int,
    rounds_budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case run: measured domain profile vs the Lemma 13 profile.

    Runs the Theorem 1 setting directly — k agents at the left endpoint
    of an n-node path, all pointers toward it — until the path is
    nearly covered, and returns ``(measured, predicted)`` normalized
    domain-size profiles ordered from the frontier inward.  On the path
    with all agents released from one endpoint the agents stay ordered,
    so domain i is the interval between agents i+1 and i and its size
    is the position difference.  §2.3 postulates measured ~ predicted
    ~ 1/(i H_k).

    The run stops once at most ``max(2, n // 50)`` nodes are unvisited,
    with the frontier agent on node ``n - 1 - max(2, n // 50)``, which
    must lie beyond node k; a path too short for that, or a budget
    below one round, raises ``ValueError`` before any step.
    """
    from repro.theory.sequences import solve_profile

    if k <= 3:
        raise ValueError(f"Lemma 13 requires k > 3, got {k}")
    if rounds_budget < 1:
        raise ValueError(f"rounds_budget must be positive, got {rounds_budget}")
    stop_unvisited = max(2, n // 50)
    if n - 1 - stop_unvisited <= k:
        raise ValueError(
            f"the run on {n} nodes stops with its frontier on node "
            f"{n - 1 - stop_unvisited}, which must lie beyond node k = {k}"
        )
    boundaries = _path_right_ends(n, k, rounds_budget, stop_unvisited) + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    measured = sizes / sizes.sum()
    profile = solve_profile(k)
    predicted = np.asarray(profile.a[1:k + 1], dtype=float)
    predicted = predicted / predicted.sum()
    return measured, predicted
