"""Agent placements studied in the paper.

The cover time of the k-agent rotor-router on the ring ranges over a
quadratic-to-logarithmic spectrum *purely as a function of the initial
placement* (Table 1):

* :func:`all_on_one` — the worst case (Theorems 1-2): Θ(n²/log k);
* :func:`equally_spaced` — the best case (Theorems 3-4): Θ(n²/k²);
* :func:`random_nodes` — the averaged case;
* :func:`clustered` / :func:`half_ring` — intermediate adversarial
  placements used in stress tests and examples.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import make_rng


def all_on_one(k: int, node: int = 0) -> list[int]:
    """All ``k`` agents stacked on one node (worst case, Theorem 1)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if node < 0:
        raise ValueError(f"node must be non-negative, got {node}")
    return [node] * k


def equally_spaced(n: int, k: int, offset: int = 0) -> list[int]:
    """``k`` agents at (approximately) even spacing on ``n`` nodes.

    Positions are ``offset + floor(i * n / k)``; when ``k`` divides
    ``n`` this is the exact equal spacing of Theorem 3 / Lemma 16.
    """
    _check_n_k(n, k)
    return [(offset + (i * n) // k) % n for i in range(k)]


def random_nodes(
    n: int,
    k: int,
    seed: int | np.random.Generator | None = 0,
    distinct: bool = False,
) -> list[int]:
    """``k`` independent uniform starting nodes (with repetition unless
    ``distinct`` is set, in which case ``k <= n`` is required)."""
    _check_n_k(n, k, allow_k_above_n=not distinct)
    rng = make_rng(seed)
    if distinct:
        return sorted(rng.choice(n, size=k, replace=False).tolist())
    return sorted(rng.integers(0, n, size=k).tolist())


def clustered(
    n: int,
    k: int,
    clusters: int,
    seed: int | np.random.Generator | None = 0,
) -> list[int]:
    """Agents split evenly over ``clusters`` random distinct nodes.

    Interpolates between :func:`all_on_one` (clusters=1) and a spread
    placement (clusters=k).
    """
    _check_n_k(n, k)
    if not 1 <= clusters <= k:
        raise ValueError(f"clusters must be in [1, {k}], got {clusters}")
    if clusters > n:
        raise ValueError(f"cannot place {clusters} clusters on {n} nodes")
    rng = make_rng(seed)
    centers = sorted(rng.choice(n, size=clusters, replace=False).tolist())
    placement = []
    for i in range(k):
        placement.append(centers[i % clusters])
    return sorted(placement)


def half_ring(n: int, k: int) -> list[int]:
    """``k`` agents equally spaced on one half of the ring.

    Leaves an agent-free arc of ~n/2 nodes: an intermediate adversarial
    placement whose cover time sits between the Table 1 extremes.
    """
    _check_n_k(n, k)
    half = max(1, n // 2)
    return sorted((i * half) // k for i in range(k))


def _check_n_k(n: int, k: int, allow_k_above_n: bool = True) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not allow_k_above_n and k > n:
        raise ValueError(f"k={k} exceeds n={n} with distinct placement")


def paper_regime_ok(n: int, k: int) -> bool:
    """Whether (n, k) is inside the paper's analysis regime k < n^(1/11).

    Experiments often run outside it (the follow-up paper [21] extends
    the bounds to all k); this predicate lets reports annotate which
    rows are in-regime.
    """
    return 1 <= k and k ** 11 < n
