"""Domain-evolution statistics: Lemma 12, Figure 1, §2.3 growth.

Steps single ring and path trajectories on
:class:`repro.sweep.batch_ring.Trajectory`, the one O(k) stepper, and
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
from typing import Sequence

import numpy as np

from repro.core.domains import (
    BorderType,
    DomainSnapshot,
    border_counts,
    domain_snapshots,
)
from repro.sweep.batch_ring import (
    Trajectory,
    lane_block,
    lanes_from_configs,
    ring_trajectories,
)

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


def _rows(ring: Trajectory) -> tuple[np.ndarray, ...]:
    """A ring trajectory's configuration as the rows
    :func:`domain_snapshots` takes."""
    counts = np.zeros(ring.n, dtype=np.int64)
    counts[list(ring.occupied)] = list(ring.occupied.values())
    return (
        counts,
        np.frombuffer(ring.bits, dtype=bool).copy(),
        np.frombuffer(ring.visited, dtype=bool).copy(),
        np.frombuffer(ring.propagation, dtype=bool).copy(),
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
    matters for stacked initial placements.  The trajectory runs on a
    :class:`Trajectory` keeping visit kinds, whose jumps stop at every
    sample round, and sampled rounds are turned into snapshots
    :data:`_BLOCK_ROUNDS` at a time by :func:`domain_snapshots`; the
    result equals stepping :class:`RingRotorRouter` with a
    :class:`VisitTypeTracker` and taking :func:`domain_snapshot` at
    every sample.
    """
    if total_rounds < 1 or sample_every < 1:
        raise ValueError("total_rounds and sample_every must be positive")
    agents = list(agents)
    (ring,) = ring_trajectories(
        n, *lanes_from_configs(n, [(list(directions), agents)]), True
    )
    stop = 0 if stop_at_cover else -1
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
            stop,
        )
        if ring.round % sample_every == 0 and max(ring.occupied.values()) <= 2:
            rounds.append(ring.round)
            rows.append(_rows(ring))
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
    A negative ``rounds`` raises ``ValueError`` before any step.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    (ring,) = ring_trajectories(
        n, *lanes_from_configs(n, [(list(directions), list(agents))]), True
    )
    ring.run(rounds)
    (snapshot,) = domain_snapshots(
        *(row[None] for row in _rows(ring)), [ring.round]
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

    The run stops once at most ``max(2, n // 50)`` nodes are unvisited
    (or after ``rounds_budget`` rounds), with the frontier agent on node
    ``n - 1 - max(2, n // 50)``, which must lie beyond node k; a path
    too short for that, or a budget below one round, raises
    ``ValueError`` before any step, and a frontier at or before node k
    when the budget runs out raises ``RuntimeError``.  For ``4 n`` more
    rounds it then records the maximum of each rank's position, ranks
    sorted from the frontier inward.
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
    path = Trajectory(n, bytearray(n), {0: k}, path=True)
    path.run(rounds_budget, stop_unvisited)
    if max(path.occupied) <= k:
        raise RuntimeError("agents did not spread within the budget")
    # Agents oscillate inside their domains, so the maxima of each
    # rank's position over 4n more rounds are the domain right ends.
    right_ends = [0] * k
    path.run(4 * n, maxima=right_ends)
    boundaries = right_ends + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    measured = sizes / sizes.sum()
    profile = solve_profile(k)
    predicted = np.asarray(profile.a[1:k + 1], dtype=float)
    predicted = predicted / predicted.sum()
    return measured, predicted
