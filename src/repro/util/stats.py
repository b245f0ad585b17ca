"""Summary statistics for repeated stochastic measurements.

Random-walk cover times are random variables; every experiment that
reports them runs repetitions and reports a mean with a confidence
interval.  This module provides the small amount of statistics needed
for that: summaries, normal-approximation intervals, and a bootstrap
fallback for small samples / skewed distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from repro.util.rng import make_rng


@dataclass(frozen=True)
class Summary:
    """Point summary of a sample of real measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def sem(self) -> float:
        """Standard error of the mean (0 for singleton samples)."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"mean={self.mean:.4g} ±{self.sem():.2g} "
            f"(n={self.count}, min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values`` (must be non-empty)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
    )


def normal_ci(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation confidence interval for the mean.

    Uses the z quantile; adequate for the sample sizes used in the
    experiments (tens of repetitions).  For ``confidence`` = 0.95 the
    z value is 1.96.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    summary = summarize(values)
    # The three standard quantiles cover almost every use in this
    # repository; anything else comes from the stdlib inverse normal
    # CDF (the package depends on numpy alone).
    z_table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    z = z_table.get(round(confidence, 2))
    if z is None:
        z = float(NormalDist().inv_cdf(0.5 + confidence / 2.0))
    half = z * summary.sem()
    return summary.mean - half, summary.mean + half


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int | None = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if arr.size == 1:
        return float(arr[0]), float(arr[0])
    rng = make_rng(seed)
    indices = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[indices].mean(axis=1)
    lower = float(np.quantile(means, (1.0 - confidence) / 2.0))
    upper = float(np.quantile(means, 1.0 - (1.0 - confidence) / 2.0))
    return lower, upper


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for averaging ratios across a sweep)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot average an empty sample")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.log(arr).mean()))


def max_abs_deviation_ratio(values: Sequence[float]) -> float:
    """Spread of a sequence as ``max/min`` (flatness measure).

    Experiments that verify an asymptotic shape (e.g. ``C(n,k) * log k /
    n**2`` should be roughly constant in ``k``) report this ratio; a value
    close to 1 means the normalized column is flat.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot measure spread of an empty sample")
    if np.any(arr <= 0):
        raise ValueError("spread ratio requires strictly positive values")
    return float(arr.max() / arr.min())
