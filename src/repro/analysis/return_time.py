"""Return-time measurements (paper §4, Theorem 6).

Theorem 6: once the k-agent rotor-router on the ring stabilizes, every
node is visited at least once every Θ(n/k) rounds, *regardless of the
initialization*.  We measure it exactly: find the limit cycle (Brent)
and scan one period for the worst per-node visit gap, including the
wrap-around gap.

For the random-walk column of Table 1, the expected gap is exactly
``n/k`` (uniform stationary distribution), measured via
:mod:`repro.randomwalk.visits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.limit import ReturnTimeResult, return_time_exact
from repro.core.ring import RingRotorRouter


@dataclass(frozen=True)
class RingReturnTime:
    """Measured rotor-router return time on the ring, with context."""

    n: int
    k: int
    worst_gap: float
    best_gap: float
    preperiod: int
    period: int

    @property
    def normalized(self) -> float:
        """worst_gap / (n/k): Theorem 6 predicts a bounded constant."""
        return self.worst_gap * self.k / self.n


def ring_rotor_return_time_exact(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    max_rounds: int | None = None,
) -> RingReturnTime:
    """Exact return time via limit-cycle detection.

    ``max_rounds`` bounds Brent's search (stabilization + period); the
    default is generous: stabilization is at most O(n²) on the ring.
    """
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    budget = max_rounds if max_rounds is not None else 16 * n * n + 1024
    result: ReturnTimeResult = return_time_exact(engine, n, budget)
    return RingReturnTime(
        n=n,
        k=len(agents),
        worst_gap=result.worst,
        best_gap=result.best,
        preperiod=result.cycle.preperiod,
        period=result.cycle.period,
    )
