"""Vectorized k random walks on the ring.

Ring cover times at Table 1 scales (n in the thousands, expectations
over tens of repetitions) need millions of walk-steps; this module
simulates them block-wise in numpy.  The exact cover round is still
recovered: within each block the first-visit round of every node is
extracted from the flattened position matrix, so results are identical
to step-by-step simulation with the same random increments.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.rng import make_rng

#: Rounds per vectorized block.  The draw shapes follow it, so the
#: batch walk kernel (:class:`repro.sweep.batch_walk.BatchRingWalks`)
#: and the gap statistics of :mod:`repro.randomwalk.visits` read it to
#: stay seed-for-seed equal to a default :class:`RingRandomWalks`.
BLOCK_SIZE = 1024


class RingRandomWalks:
    """k independent +/-1 walks on the n-ring with exact cover times."""

    def __init__(
        self,
        n: int,
        positions: Iterable[int],
        seed: int | np.random.Generator | None = 0,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        if n < 3:
            raise ValueError(f"ring requires n >= 3, got {n}")
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.n = n
        self.rng = make_rng(seed)
        self.block_size = block_size
        self.positions = np.asarray(list(positions), dtype=np.int64)
        if self.positions.size == 0:
            raise ValueError("at least one walker is required")
        if np.any((self.positions < 0) | (self.positions >= n)):
            raise ValueError("walker position out of range")
        self.num_walkers = int(self.positions.size)
        self.round = 0
        self.first_visit = np.full(n, -1, dtype=np.int64)
        self.first_visit[self.positions] = 0
        self.unvisited = int(np.count_nonzero(self.first_visit < 0))
        self.cover_round: int | None = 0 if self.unvisited == 0 else None

    def step(self) -> None:
        """One synchronous round (kept for API parity / small tests)."""
        increments = self.rng.choice((-1, 1), size=self.num_walkers)
        self.positions = (self.positions + increments) % self.n
        self.round += 1
        fresh = self.positions[self.first_visit[self.positions] < 0]
        if fresh.size:
            self.first_visit[np.unique(fresh)] = self.round
            self.unvisited = int(np.count_nonzero(self.first_visit < 0))
            if self.unvisited == 0 and self.cover_round is None:
                self.cover_round = self.round

    def _advance_block(self, block: int) -> np.ndarray:
        """Advance ``block`` rounds; return the (block, k) position matrix."""
        increments = self.rng.choice(
            (-1, 1), size=(block, self.num_walkers)
        ).astype(np.int64)
        trajectory = (
            self.positions[None, :] + np.cumsum(increments, axis=0)
        ) % self.n
        self.positions = trajectory[-1].copy()
        return trajectory

    def _mark_first_visits(self, trajectory: np.ndarray) -> None:
        """Record first-visit rounds from a block trajectory."""
        block = trajectory.shape[0]
        flat = trajectory.ravel()  # row-major: round-by-round
        nodes, first_index = np.unique(flat, return_index=True)
        rows = first_index // self.num_walkers  # 0-based round offset
        for node, row in zip(nodes, rows):
            if self.first_visit[node] < 0:
                self.first_visit[node] = self.round + int(row) + 1
        self.round += block
        self.unvisited = int(np.count_nonzero(self.first_visit < 0))
        if self.unvisited == 0 and self.cover_round is None:
            self.cover_round = int(self.first_visit.max())

    def run(self, rounds: int) -> None:
        """Advance ``rounds`` rounds (block-wise)."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        remaining = rounds
        while remaining > 0:
            block = min(self.block_size, remaining)
            self._mark_first_visits(self._advance_block(block))
            remaining -= block

    def run_until_covered(self, max_rounds: int | None = None) -> int:
        """Run until all nodes are visited; return the exact cover round."""
        while self.cover_round is None:
            if max_rounds is not None and self.round >= max_rounds:
                raise RuntimeError(
                    f"not covered within {max_rounds} rounds "
                    f"({self.unvisited} nodes unvisited)"
                )
            block = self.block_size
            if max_rounds is not None:
                block = min(block, max_rounds - self.round)
            self._mark_first_visits(self._advance_block(block))
        return self.cover_round

    def visit_rounds_of(self, node: int, rounds: int) -> np.ndarray:
        """Rounds within the next ``rounds`` at which ``node`` is visited.

        Advances the system.  Used by the return-time comparison: on the
        ring the expected gap between successive visits to a fixed node
        is exactly n/k (uniform stationary distribution), but the gap
        distribution has heavy variance — unlike the rotor-router.
        """
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} out of range")
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        hits: list[int] = []
        remaining = rounds
        while remaining > 0:
            block = min(self.block_size, remaining)
            base = self.round
            trajectory = self._advance_block(block)
            rows = np.nonzero((trajectory == node).any(axis=1))[0]
            hits.extend(base + int(r) + 1 for r in rows)
            self._mark_first_visits(trajectory)
            remaining -= block
        return np.asarray(hits, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingRandomWalks(n={self.n}, k={self.num_walkers}, "
            f"round={self.round})"
        )
