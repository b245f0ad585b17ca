"""Domain-evolution statistics: Lemma 12, Figure 1, §2.3 growth.

Runs a ring engine with the visit-type tracker and samples domain
snapshots at intervals (the Figure 1 census runs its configurations
as lanes of the batched ring kernel instead), producing the data
series behind three reproduction targets:

* **Lemma 12** — once every lazy domain is reasonably large, adjacent
  lazy-domain sizes converge (eventually differing by <= 10);
* **Figure 1** — the borders between adjacent lazy domains are
  vertex-type or edge-type (with rare one-step transients);
* **§2.3** — from the all-on-one worst case, the covered region grows
  like sqrt(t) and domain sizes follow the ~1/i Lemma 13 profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.domains import (
    BorderType,
    DomainSnapshot,
    VisitTypeTracker,
    border_counts,
    domain_snapshot,
)
from repro.core.ring import RingRotorRouter
from repro.sweep.batch_ring import BatchRingKernel, lanes_from_configs

#: Sampled rounds classified per :func:`border_counts` call in
#: :func:`border_type_census`.  The block's doubled, flattened rows are
#: the census's working set: at Figure 1's size, ``run_figure1`` peaks
#: 3.8 MB above its starting RSS with 8-round blocks, 8.0 MB with 32
#: and 13.5 MB with 64, at about the same speed.
_CENSUS_BLOCK_ROUNDS = 8


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
    matters for stacked initial placements.
    """
    if total_rounds < 1 or sample_every < 1:
        raise ValueError("total_rounds and sample_every must be positive")
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    trace = DomainTrace(n=n, k=len(list(agents)))
    for _ in range(total_rounds):
        tracker.advance()
        if engine.round % sample_every == 0:
            if max(engine.counts.values(), default=0) <= 2:
                trace.rounds.append(engine.round)
                trace.snapshots.append(domain_snapshot(engine, tracker))
        if stop_at_cover and engine.unvisited == 0:
            break
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
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    for _ in range(rounds):
        tracker.advance()
    snapshot = domain_snapshot(engine, tracker)
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
    sample_every: int = 1,
) -> list[Counter]:
    """Census of border types between lazy domains (Figure 1 data).

    Each configuration is an ``(agents, directions)`` pair on the
    n-ring.  After ``burn_in`` rounds, classify the borders at every
    ``sample_every``-th round of the next ``observation_rounds`` rounds
    (starting with the first), and return one Counter of
    :class:`BorderType` per configuration.  Figure 1's claim: borders
    are vertex-type or edge-type (transients are rare one-step events
    right after a first traversal).

    The configurations run together as lanes of one
    :class:`BatchRingKernel`.  Visit kinds are one array update per
    round, and sampled rounds are classified a block at a time by
    :func:`border_counts`, which equals :func:`classify_borders` of
    :func:`domain_snapshot` per sample.  Raises :class:`DomainError`
    when a sampled round holds 3+ agents on a node.
    """
    if burn_in < 0 or observation_rounds < 0 or sample_every < 1:
        raise ValueError(
            "burn_in and observation_rounds must be non-negative and "
            "sample_every positive"
        )
    pointers, counts = lanes_from_configs(
        n, [(list(dirs), list(agents)) for agents, dirs in configurations]
    )
    kernel = BatchRingKernel(n, pointers, counts, track_cover=False)
    lanes = kernel.num_lanes
    visited = counts > 0
    propagation = np.zeros_like(visited)
    arrived = np.empty_like(visited)
    lone = np.empty_like(visited)
    lone_forward = np.empty_like(visited)
    block_counts = np.empty(
        (_CENSUS_BLOCK_ROUNDS, lanes, n), kernel.round_arrays()[0].dtype
    )
    block_pointers = np.empty_like(block_counts)
    block_visited = np.empty((_CENSUS_BLOCK_ROUNDS, lanes, n), bool)
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
        kernel.step(need_visits=False)
        cnt, ptr, cw_exits = kernel.round_arrays()
        np.greater(cnt, 0, out=arrived)
        visited |= arrived
        # A lone arrival propagates iff the pointer it finds now points
        # the way it travelled: clockwise iff one agent left v-1 that way.
        np.equal(ptr[:, 1:], cw_exits[:, :-1], out=lone_forward[:, 1:])
        np.equal(ptr[:, 0], cw_exits[:, -1], out=lone_forward[:, 0])
        np.equal(cnt, 1, out=lone)
        lone_forward &= lone
        np.copyto(propagation, lone_forward, where=arrived)
        if t >= burn_in and (t - burn_in) % sample_every == 0:
            block_counts[samples] = cnt
            block_pointers[samples] = ptr
            block_visited[samples] = visited
            block_propagation[samples] = propagation
            samples += 1
            if samples == _CENSUS_BLOCK_ROUNDS:
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
    """
    from repro.core.path import PathRotorRouter
    from repro.theory.sequences import solve_profile

    if k <= 3:
        raise ValueError(f"Lemma 13 requires k > 3, got {k}")
    engine = PathRotorRouter(n, [-1] * n, [0] * k, track_counts=False)
    for _ in range(rounds_budget):
        if engine.unvisited <= max(2, n // 50):
            break
        engine.step()
    if sorted(engine.positions(), reverse=True)[0] <= k:
        raise RuntimeError("agents did not spread within the budget")
    # Agents oscillate inside their domains; the domain right endpoint
    # of rank i is the maximum of the i-th largest position over a
    # window of a few sweeps.
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
    measured = sizes / sizes.sum()
    profile = solve_profile(k)
    predicted = np.asarray(profile.a[1:k + 1], dtype=float)
    predicted = predicted / predicted.sum()
    return measured, predicted
