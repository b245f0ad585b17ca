"""Path-specialized multi-agent rotor-router engine.

The Theorem 1 analysis reduces the ring with all agents on one node to
a *path* with half the agents at one endpoint (the configuration stays
mirror-symmetric), and the Phase A/B1/B2 delayed deployment of the
proof — reproduced in :mod:`repro.experiments.deployments` — runs on
the path.  This engine is the O(k)-per-round path counterpart of
:class:`repro.core.ring.RingRotorRouter` and, stepped under
:mod:`repro.core.delayed` holds, the tests' oracle for the deployment
and the Lemma 13 run, which production code steps on
:class:`repro.sweep.batch_ring.Trajectory`:

* interior nodes behave exactly like ring nodes (pointer = direction,
  flip on odd exits);
* endpoint nodes have a single port, so every agent leaves through it
  and the pointer (trivially) never changes.

Pointers are +1 (toward ``v+1``) / -1 (toward ``v-1``); the values at
the endpoints are forced (+1 at node 0, -1 at node n-1).  Equivalence
with the general engine on :func:`repro.graphs.families.path_graph` is
property-tested.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

Move = tuple[int, int, int]


class PathRotorRouter:
    """k-agent rotor-router on the n-node path 0-1-...-(n-1)."""

    def __init__(
        self,
        n: int,
        pointers: Sequence[int],
        agents: Iterable[int],
        track_counts: bool = True,
    ) -> None:
        if n < 2:
            raise ValueError(f"path requires n >= 2, got {n}")
        if len(pointers) != n:
            raise ValueError(
                f"pointers has length {len(pointers)}, path has {n} nodes"
            )
        self.n = n
        self.ptr: list[int] = []
        for v, d in enumerate(pointers):
            if d not in (1, -1):
                raise ValueError(
                    f"pointer at node {v} must be +1 or -1, got {d!r}"
                )
            self.ptr.append(int(d))
        self.ptr[0] = 1
        self.ptr[n - 1] = -1

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

    def step(self, holds: Mapping[int, int] | None = None) -> list[Move]:
        """One synchronous round; returns aggregated (src, dst, count)."""
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
            if v == 0 or v == n - 1:
                # Degree-1 endpoint: everyone leaves through the one arc.
                moves.append((v, v + ptr[v], release))
            else:
                d = ptr[v]
                via_pointer = (release + 1) // 2
                moves.append((v, v + d, via_pointer))
                via_other = release - via_pointer
                if via_other:
                    moves.append((v, v - d, via_other))
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
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.step()

    def run_until_covered(self, max_rounds: int | None = None) -> int:
        while self.cover_round is None:
            if max_rounds is not None and self.round >= max_rounds:
                raise RuntimeError(
                    f"not covered within {max_rounds} rounds "
                    f"({self.unvisited} nodes unvisited)"
                )
            self.step()
        return self.cover_round

    # ------------------------------------------------------------------
    def positions(self) -> list[int]:
        result: list[int] = []
        for v in sorted(self.counts):
            result.extend([v] * self.counts[v])
        return result

    def pointer_array(self) -> np.ndarray:
        return np.asarray(self.ptr, dtype=np.int8)

    def state_key(self) -> bytes:
        occupancy = ",".join(
            f"{v}:{self.counts[v]}" for v in sorted(self.counts)
        )
        return self.pointer_array().tobytes() + occupancy.encode("ascii")

    def clone(self) -> "PathRotorRouter":
        twin = PathRotorRouter(
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
            f"PathRotorRouter(n={self.n}, k={self.num_agents}, "
            f"round={self.round})"
        )
