"""Visit-gap statistics for the return-time comparison (paper §4).

The paper contrasts the rotor-router's *deterministic* guarantee —
after stabilization every node is visited every Θ(n/k) rounds — with
the k-random-walk behaviour: the expected gap is n/k, but the gap
random variable has high variance and unbounded support.  This module
measures both sides of that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.randomwalk import ring_walk
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class GapStatistics:
    """Statistics of the gaps between successive visits to one node."""

    count: int
    mean: float
    std: float
    maximum: float
    p99: float

    @classmethod
    def from_visit_rounds(cls, rounds: np.ndarray) -> "GapStatistics":
        if rounds.size < 2:
            raise ValueError(
                "need at least two visits to compute gap statistics"
            )
        gaps = np.diff(np.sort(rounds)).astype(float)
        return cls(
            count=int(gaps.size),
            mean=float(gaps.mean()),
            std=float(gaps.std(ddof=1)) if gaps.size > 1 else 0.0,
            maximum=float(gaps.max()),
            p99=float(np.quantile(gaps, 0.99)),
        )

    def to_metrics(self) -> dict:
        """Flat ``gap_*`` dict form (the sweep cache's metric keys).

        One definition of the mapping, shared by the sweep executor
        and the analysis backend; :meth:`from_metrics` inverts it.
        """
        return {
            "gap_count": self.count,
            "gap_mean": self.mean,
            "gap_std": self.std,
            "gap_max": self.maximum,
            "gap_p99": self.p99,
        }

    @classmethod
    def from_metrics(cls, metrics: dict) -> "GapStatistics":
        return cls(
            count=int(metrics["gap_count"]),
            mean=float(metrics["gap_mean"]),
            std=float(metrics["gap_std"]),
            maximum=float(metrics["gap_max"]),
            p99=float(metrics["gap_p99"]),
        )


def ring_walk_gap_statistics(
    n: int,
    k: int,
    node: int,
    observation_rounds: int,
    burn_in: int = 0,
    seed: int = 0,
) -> GapStatistics:
    """Gap statistics of visits by k ring walkers to ``node``.

    Walkers start equally spaced (the stationary-friendly placement);
    ``burn_in`` rounds are discarded before observation.  The expected
    gap is n/k; the paper's point is that the *maximum* gap keeps
    growing with the observation window, unlike the rotor-router's hard
    Θ(n/k) ceiling.

    The simulation is fully vectorized: blocks of increments become
    trajectories with one cumulative sum and hit rounds with one
    equality scan — no first-visit bookkeeping, no per-step Python.
    The generator is consumed in exactly the block shapes a
    :class:`repro.randomwalk.ring_walk.RingRandomWalks` run would draw
    (``run(burn_in)`` followed by ``visit_rounds_of``), so measured
    gaps match the historical harness-based implementation visit for
    visit; ``tests/test_randomwalk_cover_visits.py`` pins the
    equivalence on seeded configurations.
    """
    from repro.core.placement import equally_spaced
    from repro.util.rng import make_rng

    if n < 3:
        raise ValueError(f"ring requires n >= 3, got {n}")
    if observation_rounds < 0 or burn_in < 0:
        raise ValueError("observation_rounds and burn_in must be >= 0")
    if not 0 <= node < n:
        raise ValueError(f"node {node} out of range")
    rng = make_rng(derive_seed(seed, "gaps", n, k, node))
    positions = np.asarray(equally_spaced(n, k), dtype=np.int64)
    block_size = ring_walk.BLOCK_SIZE  # fixes the draw shapes

    def advance(block: int) -> np.ndarray:
        nonlocal positions
        increments = rng.choice((-1, 1), size=(block, k)).astype(np.int64)
        trajectory = (
            positions[None, :] + np.cumsum(increments, axis=0)
        ) % n
        positions = trajectory[-1].copy()
        return trajectory

    remaining = burn_in
    while remaining > 0:
        advance(min(block_size, remaining))
        remaining -= block_size

    hits: list[np.ndarray] = []
    base = 0
    remaining = observation_rounds
    while remaining > 0:
        block = min(block_size, remaining)
        rows = np.flatnonzero((advance(block) == node).any(axis=1))
        if rows.size:
            hits.append(rows + (base + 1))
        base += block
        remaining -= block

    rounds = (
        np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    )
    if rounds.size < 2:
        raise RuntimeError(
            f"node {node} was visited {rounds.size} times in "
            f"{observation_rounds} rounds; increase the window"
        )
    return GapStatistics.from_visit_rounds(rounds)
