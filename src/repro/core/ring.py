"""Ring-specialized multi-agent rotor-router engine.

On the n-node ring every node has exactly two ports, so a pointer is a
direction: ``+1`` (clockwise, toward ``v+1``) or ``-1`` (anticlockwise,
toward ``v-1``), matching the port convention of
:func:`repro.graphs.ring.ring_graph` (port 0 = clockwise).  With ``c``
agents on a node, ``ceil(c/2)`` leave along the pointer, ``floor(c/2)``
along the other arc, and the pointer flips iff ``c`` is odd — exactly
the round-robin rule of the general engine.

The engine keeps the occupied nodes in a dict, so a round costs O(k)
rather than O(n); ``run_until_covered`` additionally inlines the hot
loop.  Equivalence with :class:`repro.core.engine.MultiAgentRotorRouter`
on :func:`ring_graph` is checked on seeded starts by the ``engines/*``
rows of the differential harness (``tests/differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

Move = tuple[int, int, int]
"""One aggregated agent movement: ``(source, destination, agent_count)``."""


@dataclass(frozen=True)
class RingState:
    """Immutable snapshot of a :class:`RingRotorRouter` configuration."""

    round: int
    pointers: bytes  # int8 array of +1/-1
    occupancy: tuple[tuple[int, int], ...]  # sorted (node, count) pairs
    visited: bytes
    unvisited: int
    cover_round: int | None

    @property
    def key(self) -> bytes:
        flat = ",".join(f"{v}:{c}" for v, c in self.occupancy)
        return self.pointers + flat.encode("ascii")


class RingRotorRouter:
    """k-agent rotor-router on the n-node ring (paper's main object).

    Parameters
    ----------
    n:
        Ring size (>= 3).
    pointers:
        Initial pointer directions, one ``+1``/``-1`` per node; see
        :mod:`repro.core.pointers` for the initializations used in the
        paper (negative, toward-a-node, random, ...).
    agents:
        Iterable of starting nodes (with multiplicity).
    track_counts:
        Maintain per-node visit/exit counters (``n_v(t)``/``e_v(t)``)
        needed by the delayed-deployment lemmas; the fast cover loop is
        only available when this is off or accepts the step-loop cost.
    """

    def __init__(
        self,
        n: int,
        pointers: Sequence[int],
        agents: Iterable[int],
        track_counts: bool = True,
    ) -> None:
        if n < 3:
            raise ValueError(f"ring requires n >= 3, got {n}")
        if len(pointers) != n:
            raise ValueError(
                f"pointers has length {len(pointers)}, ring has {n} nodes"
            )
        self.n = n
        self.ptr: list[int] = []
        for v, d in enumerate(pointers):
            if d not in (1, -1):
                raise ValueError(
                    f"pointer at node {v} must be +1 or -1, got {d!r}"
                )
            self.ptr.append(int(d))

        self.counts: dict[int, int] = {}
        agent_list = [int(a) for a in agents]
        if not agent_list:
            raise ValueError("at least one agent is required")
        for a in agent_list:
            if not 0 <= a < n:
                raise ValueError(f"agent position {a} out of range")
            self.counts[a] = self.counts.get(a, 0) + 1
        self.num_agents = len(agent_list)

        self.round = 0
        self.visited = bytearray(n)
        for v in self.counts:
            self.visited[v] = 1
        self.unvisited = n - len(self.counts)
        self.cover_round: int | None = 0 if self.unvisited == 0 else None

        self.track_counts = bool(track_counts)
        self.visit_counts: np.ndarray | None = None
        self.exit_counts: np.ndarray | None = None
        if self.track_counts:
            self.visit_counts = np.zeros(n, dtype=np.int64)
            for v, c in self.counts.items():
                self.visit_counts[v] = c
            self.exit_counts = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, holds: Mapping[int, int] | None = None) -> list[Move]:
        """Advance one synchronous round; return aggregated moves.

        ``holds[v]`` agents are delayed at ``v`` this round (paper §2.1).
        """
        n = self.n
        ptr = self.ptr
        if holds is not None:
            # Validate up front so a bad holds mapping cannot leave the
            # engine half-stepped.
            for v, h in holds.items():
                if h < 0:
                    raise ValueError(f"negative hold {h} at node {v}")
                present = self.counts.get(v, 0)
                if h > present:
                    raise ValueError(
                        f"cannot hold {h} agents at node {v}: "
                        f"only {present} present"
                    )
        moves: list[Move] = []
        new_counts: dict[int, int] = {}
        for v, c in self.counts.items():
            held = 0 if holds is None else int(holds.get(v, 0))
            release = c - held
            if held:
                new_counts[v] = new_counts.get(v, 0) + held
            if release == 0:
                continue
            d = ptr[v]
            via_pointer = (release + 1) // 2
            moves.append((v, (v + d) % n, via_pointer))
            via_other = release - via_pointer
            if via_other:
                moves.append((v, (v - d) % n, via_other))
            if release & 1:
                ptr[v] = -d
            if self.exit_counts is not None:
                self.exit_counts[v] += release
        visited = self.visited
        for _, dst, cnt in moves:
            new_counts[dst] = new_counts.get(dst, 0) + cnt
            if self.visit_counts is not None:
                self.visit_counts[dst] += cnt
            if not visited[dst]:
                visited[dst] = 1
                self.unvisited -= 1
        self.counts = new_counts
        self.round += 1
        if self.unvisited == 0 and self.cover_round is None:
            self.cover_round = self.round
        return moves

    def run(self, rounds: int) -> None:
        """Advance ``rounds`` undelayed rounds."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.step()

    def run_until_covered(self, max_rounds: int | None = None) -> int:
        """Run undelayed until covered; returns the cover time.

        When per-node counters are disabled this uses an inlined loop
        that avoids building move lists, which is what makes the
        Table 1 sweeps practical (O(k) python operations per round).
        """
        if self.cover_round is not None:
            return self.cover_round
        if self.track_counts:
            while self.cover_round is None:
                if max_rounds is not None and self.round >= max_rounds:
                    raise RuntimeError(
                        f"not covered within {max_rounds} rounds "
                        f"({self.unvisited} nodes unvisited)"
                    )
                self.step()
            return self.cover_round

        n = self.n
        ptr = self.ptr
        counts = self.counts
        visited = self.visited
        unvisited = self.unvisited
        rnd = self.round
        limit = max_rounds if max_rounds is not None else float("inf")
        while unvisited:
            if rnd >= limit:
                self.counts = counts
                self.unvisited = unvisited
                self.round = rnd
                raise RuntimeError(
                    f"not covered within {max_rounds} rounds "
                    f"({unvisited} nodes unvisited)"
                )
            new_counts: dict[int, int] = {}
            get = new_counts.get
            for v, c in counts.items():
                d = ptr[v]
                dst = v + d
                if dst >= n:
                    dst -= n
                elif dst < 0:
                    dst += n
                via_pointer = (c + 1) >> 1
                new_counts[dst] = get(dst, 0) + via_pointer
                via_other = c - via_pointer
                if via_other:
                    dst2 = v - d
                    if dst2 >= n:
                        dst2 -= n
                    elif dst2 < 0:
                        dst2 += n
                    new_counts[dst2] = get(dst2, 0) + via_other
                if c & 1:
                    ptr[v] = -d
            for dst in new_counts:
                if not visited[dst]:
                    visited[dst] = 1
                    unvisited -= 1
            counts = new_counts
            rnd += 1
        self.counts = counts
        self.unvisited = unvisited
        self.round = rnd
        self.cover_round = rnd
        return rnd

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def positions(self) -> list[int]:
        """Sorted agent locations with multiplicity."""
        result: list[int] = []
        for v in sorted(self.counts):
            result.extend([v] * self.counts[v])
        return result

    def pointer_array(self) -> np.ndarray:
        """Pointer directions as an int8 numpy array (copy)."""
        return np.asarray(self.ptr, dtype=np.int8)

    def state_key(self) -> bytes:
        """Compact configuration identity (pointers + agent multiset)."""
        occupancy = ",".join(
            f"{v}:{self.counts[v]}" for v in sorted(self.counts)
        )
        return self.pointer_array().tobytes() + occupancy.encode("ascii")

    def snapshot(self) -> RingState:
        return RingState(
            round=self.round,
            pointers=self.pointer_array().tobytes(),
            occupancy=tuple(sorted(self.counts.items())),
            visited=bytes(self.visited),
            unvisited=self.unvisited,
            cover_round=self.cover_round,
        )

    def restore(self, state: RingState) -> None:
        """Restore a snapshot taken from a same-size ring engine."""
        pointers = np.frombuffer(state.pointers, dtype=np.int8)
        if len(pointers) != self.n:
            raise ValueError("snapshot does not match this ring size")
        self.round = state.round
        self.ptr = [int(d) for d in pointers]
        self.counts = {v: c for v, c in state.occupancy}
        self.visited = bytearray(state.visited)
        self.unvisited = state.unvisited
        self.cover_round = state.cover_round

    def clone(self) -> "RingRotorRouter":
        """Independent engine in the same configuration.

        Analysis counters restart from the cloned configuration.
        """
        twin = RingRotorRouter(
            self.n, list(self.ptr), self.positions(),
            track_counts=self.track_counts,
        )
        twin.round = self.round
        twin.visited = bytearray(self.visited)
        twin.unvisited = self.unvisited
        twin.cover_round = self.cover_round
        return twin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingRotorRouter(n={self.n}, k={self.num_agents}, "
            f"round={self.round})"
        )
