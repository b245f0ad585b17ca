"""Limit behaviour of the rotor-router: cycles, return times, lock-in.

The rotor-router is a deterministic finite-state system, so from any
initialization it eventually cycles through a finite set of
configurations (paper §4).  This module finds that limit cycle exactly
— via Brent's cycle-finding algorithm over configuration keys, which
needs O(mu + lam) steps and O(1) stored snapshots — and measures:

* the **return time** (paper §4, Theorem 6): the longest interval any
  node stays unvisited within the limit cycle, shown to be Θ(n/k) on
  the ring regardless of initialization;
* the **Eulerian lock-in** of the single-agent rotor-router (Yanovski
  et al. [27], Bampas et al. [6]): after at most 2D|E| steps the agent
  repeats an Eulerian circuit of the directed symmetric graph, i.e. the
  limit cycle has period exactly 2|E| and traverses every arc once;
* **edge traversal balance** within a period (the multi-agent system
  "visits all edges a similar number of times", [27]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np


class CyclingSystem(Protocol):
    """Deterministic system interface required for cycle detection."""

    round: int

    def step(self, holds=None) -> list:  # pragma: no cover - protocol
        ...

    def clone(self):  # pragma: no cover - protocol
        ...

    def state_key(self) -> bytes:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class LimitCycle:
    """The eventual periodic behaviour of a deterministic system.

    ``preperiod`` (mu) counts the rounds before the system enters its
    limit cycle, measured from the configuration it was given in;
    ``period`` (lam) is the cycle length.
    """

    preperiod: int
    period: int


@dataclass(frozen=True)
class ReturnTimeResult:
    """Exact per-node return times within the limit cycle.

    ``max_gap[v]`` is the longest stretch of consecutive rounds in the
    limit cycle during which node ``v`` receives no visit; the paper's
    *return time* is ``worst`` = max over nodes.  A node never visited
    during the cycle has gap ``inf`` (cannot happen on the ring).
    """

    cycle: LimitCycle
    max_gap: np.ndarray

    @property
    def worst(self) -> float:
        return float(self.max_gap.max())

    @property
    def best(self) -> float:
        return float(self.max_gap.min())


def find_limit_cycle(system: CyclingSystem, max_rounds: int) -> LimitCycle:
    """Brent's algorithm over configuration keys.

    The input system is not mutated (all work happens on clones).
    Raises ``RuntimeError`` if no cycle is confirmed within
    ``max_rounds`` steps of the fast pointer.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive, got {max_rounds}")
    # Phase 1: find the period lam.
    power = 1
    lam = 1
    tortoise = system.clone()
    hare = system.clone()
    hare.step()
    steps = 1
    while tortoise.state_key() != hare.state_key():
        if power == lam:
            tortoise = hare.clone()
            power *= 2
            lam = 0
        hare.step()
        steps += 1
        lam += 1
        if steps > max_rounds:
            raise RuntimeError(
                f"no limit cycle confirmed within {max_rounds} rounds"
            )
    # Phase 2: find the preperiod mu with two synchronized walkers.
    tortoise = system.clone()
    hare = system.clone()
    for _ in range(lam):
        hare.step()
    mu = 0
    while tortoise.state_key() != hare.state_key():
        tortoise.step()
        hare.step()
        mu += 1
        if mu > max_rounds:
            raise RuntimeError(
                f"preperiod exceeds {max_rounds} rounds (inconsistent state)"
            )
    return LimitCycle(preperiod=mu, period=lam)


def _gaps_from_run(
    system: CyclingSystem, n: int, period: int
) -> np.ndarray:
    """Max per-node visit gaps over one ``period`` of ``system``.

    The wrap-around gap (last visit -> first visit of the next
    repetition) is included, giving exact limit-cycle return times.
    """
    first_visit = np.full(n, -1, dtype=np.int64)
    last_visit = np.full(n, -1, dtype=np.int64)
    max_gap = np.zeros(n, dtype=np.int64)
    for t in range(period):
        moves = system.step()
        for _, dst, _ in moves:
            if last_visit[dst] >= 0:
                gap = t - last_visit[dst]
                if gap > max_gap[dst]:
                    max_gap[dst] = gap
            else:
                first_visit[dst] = t
            last_visit[dst] = t
    wrap = first_visit + period - last_visit
    result = np.maximum(max_gap, wrap).astype(float)
    result[first_visit < 0] = math.inf
    return result


def return_time_exact(
    system: CyclingSystem, n: int, max_rounds: int
) -> ReturnTimeResult:
    """Exact return times: find the limit cycle, then scan one period.

    ``n`` is the number of nodes of the underlying graph.  The input
    system is not mutated.
    """
    cycle = find_limit_cycle(system, max_rounds)
    runner = system.clone()
    for _ in range(cycle.preperiod):
        runner.step()
    gaps = _gaps_from_run(runner, n, cycle.period)
    return ReturnTimeResult(cycle=cycle, max_gap=gaps)


@dataclass(frozen=True)
class LockInResult:
    """Single-agent Eulerian lock-in facts (Yanovski et al. [27])."""

    cycle: LimitCycle
    num_arcs: int

    @property
    def locks_into_euler_cycle(self) -> bool:
        """True iff the limit cycle is a directed Eulerian circuit."""
        return self.cycle.period == self.num_arcs

    @property
    def lock_in_round(self) -> int:
        return self.cycle.preperiod


def eulerian_lockin(system: CyclingSystem, num_arcs: int, max_rounds: int) -> LockInResult:
    """Detect Eulerian lock-in for a single-agent rotor-router.

    Yanovski et al. prove the agent enters an Eulerian circuit of the
    directed symmetric graph within 2D|E| steps; hence the limit cycle
    must have period exactly ``2|E|`` (= ``num_arcs``) and preperiod at
    most ``2 * D * |E|`` — both asserted by the test suite.
    """
    cycle = find_limit_cycle(system, max_rounds)
    return LockInResult(cycle=cycle, num_arcs=num_arcs)


def arc_balance_in_cycle(
    system: CyclingSystem, max_rounds: int, num_arcs: int | None = None
) -> tuple[int, int]:
    """(min, max) arc traversal counts over one limit-cycle period.

    Quantifies the fairness property: in the limit the rotor-router
    traverses all arcs equally often (exactly once per period for a
    single agent; "a similar number of times" for many agents [27]).
    When ``num_arcs`` is given, arcs never traversed during the period
    count as 0 toward the minimum.
    """
    cycle = find_limit_cycle(system, max_rounds)
    runner = system.clone()
    for _ in range(cycle.preperiod):
        runner.step()
    traversals: dict[tuple[int, int], int] = {}
    for _ in range(cycle.period):
        for src, dst, cnt in runner.step():
            traversals[(src, dst)] = traversals.get((src, dst), 0) + cnt
    if not traversals:
        raise RuntimeError("no arcs traversed within the limit cycle")
    values = list(traversals.values())
    lowest = min(values)
    if num_arcs is not None and len(traversals) < num_arcs:
        lowest = 0
    return lowest, max(values)
