"""Remote vertices (paper Definition 2) and the Theorem 4 adversary.

A vertex ``v`` of the n-ring is *remote* with respect to the multiset
``S`` of k starting positions if for every ``1 <= r <= k`` the windows
of length ``r * n / (10k)`` on both sides of ``v`` contain at most
``r`` starting positions:

    |[v, v + r*n/(10k)] ∩ S| <= r   and   |[v, v - r*n/(10k)] ∩ S| <= r.

Lemma 15 shows at least ``0.8 n − o(n)`` vertices are remote for
*every* placement; Theorem 4 and Lemma 17/18 build their lower bounds
around remote vertices far from all agents.  Windows are inclusive
integer arcs ``v, v±1, ..., v±floor(r·n/(10k))`` and positions are
counted with multiplicity (the stricter reading; it only strengthens
the experimental check of Lemma 15).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.ring import source_gaps


def _occupancy(n: int, starts: Sequence[int]) -> np.ndarray:
    counts = np.zeros(n, dtype=np.int64)
    for s in starts:
        if not 0 <= s < n:
            raise ValueError(f"starting position {s} out of range for n={n}")
        counts[s] += 1
    return counts


def remote_vertex_mask(n: int, starts: Sequence[int]) -> np.ndarray:
    """Boolean mask of remote vertices (vectorized over v, loop over r).

    O(n·k) time with numpy inner vectorization; exact per Definition 2.
    """
    if n < 3:
        raise ValueError(f"ring requires n >= 3, got {n}")
    k = len(starts)
    if k < 1:
        raise ValueError("at least one starting position is required")
    counts = _occupancy(n, starts)
    # Cyclic prefix sums over a doubled array: forward window
    # [v, v + w] has count prefix[v + w + 1] - prefix[v].
    doubled = np.concatenate([counts, counts])
    prefix = np.concatenate([[0], np.cumsum(doubled)])
    vs = np.arange(n)
    mask = np.ones(n, dtype=bool)
    for r in range(1, k + 1):
        width = (r * n) // (10 * k)
        window = min(width + 1, n)  # inclusive arc, capped at the ring
        forward = prefix[vs + window] - prefix[vs]
        backward_start = (vs - window + 1) % n
        backward = prefix[backward_start + window] - prefix[backward_start]
        mask &= (forward <= r) & (backward <= r)
        if not mask.any():
            break
    return mask


def is_remote(n: int, starts: Sequence[int], v: int) -> bool:
    """Definition 2 check for a single vertex (reference implementation).

    Deliberately written as a direct transcription of the definition;
    the test suite cross-validates :func:`remote_vertex_mask` against
    it on random instances.
    """
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    k = len(starts)
    for r in range(1, k + 1):
        width = (r * n) // (10 * k)
        window = min(width + 1, n)
        forward = sum(
            1 for s in starts if (s - v) % n < window
        )
        backward = sum(
            1 for s in starts if (v - s) % n < window
        )
        if forward > r or backward > r:
            return False
    return True


def count_remote_vertices(n: int, starts: Sequence[int]) -> int:
    """Number of remote vertices (Lemma 15: at least 0.8n − o(n))."""
    return int(remote_vertex_mask(n, starts).sum())


def remote_vertices_far_from_agents(
    n: int, starts: Sequence[int], min_distance: int
) -> list[int]:
    """Remote vertices at ring distance >= ``min_distance`` from every
    starting position — the vertices the Theorem 4 / Lemma 17
    adversaries target (the paper uses ``min_distance = n/(9k)`` and
    ``n/(10k)`` respectively)."""
    mask = remote_vertex_mask(n, starts)
    clockwise_gap, anticlockwise_gap = source_gaps(
        n, np.unique(np.asarray(starts, dtype=np.int64))
    )
    far = np.minimum(clockwise_gap, anticlockwise_gap) >= min_distance
    return np.flatnonzero(mask & far).tolist()


def lemma15_lower_bound(n: int) -> float:
    """The Lemma 15 guarantee, ignoring the o(n) slack: 0.8 * n.

    Experiments report the measured count side by side; for finite n
    the o(n) term matters, so assertions use a relaxed constant.
    """
    return 0.8 * n
