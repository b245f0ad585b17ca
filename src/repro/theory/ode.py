"""Continuous-time approximation of domain evolution (paper §2.3).

The paper approximates the discrete motion of k agents on the ring by a
system of ODEs over the domain sizes ``nu_i(t)``:

    d nu_i / dt = 1/nu_i - 1/(2 nu_{i-1}) - 1/(2 nu_{i+1}),

with boundary conditions depending on coverage: before the ring is
covered, domains 1 and k border the unexplored region and the paper
sets ``nu_0 = nu_{k+1} = +inf`` (the corresponding terms vanish); after
coverage the system is cyclic (``nu_0 = nu_k``, ``nu_{k+1} = nu_1``).

The postulated asymptotics — ``f(t) ~ sqrt(t)`` growth of the covered
region and relative domain sizes ``~ 1/i`` (more precisely the Lemma 13
profile) — are checked against both this integration and the discrete
simulator in ``benchmarks/bench_ode_approximation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def domain_rhs(
    nu: np.ndarray, covered: bool, mirror_right: bool = False
) -> np.ndarray:
    """Right-hand side of the §2.3 ODE system for sizes ``nu_1..nu_k``.

    Boundary conditions:

    * ``covered=True`` — cyclic (``nu_0 = nu_k``, ``nu_{k+1} = nu_1``):
      the ring after coverage;
    * ``covered=False, mirror_right=False`` — both ends open
      (``nu_0 = nu_{k+1} = +inf``): the ring while uncovered, whose two
      frontiers make the profile symmetric;
    * ``covered=False, mirror_right=True`` — open at the frontier end,
      mirror at the other (``nu_{k+1} = nu_k``): the *path* of the
      Theorem 1 reduction, whose stationary shape is exactly the
      Lemma 13 sequence (its boundary condition ``a_{k+1} = a_k``).
    """
    nu = np.asarray(nu, dtype=float)
    k = nu.size
    if k == 0:
        raise ValueError("at least one domain is required")
    inv = 1.0 / nu
    rhs = inv.copy()
    if covered:
        left = np.roll(inv, 1)    # nu_{i-1}; cyclic
        right = np.roll(inv, -1)  # nu_{i+1}; cyclic
        rhs -= 0.5 * (left + right)
    else:
        # nu_0 = +inf: the frontier term vanishes at the left end.
        rhs[1:] -= 0.5 * inv[:-1]
        rhs[:-1] -= 0.5 * inv[1:]
        if mirror_right:
            # nu_{k+1} = nu_k: the wall reflects the last domain.
            rhs[-1] -= 0.5 * inv[-1]
    return rhs


@dataclass(frozen=True)
class DomainTrajectory:
    """Solution of the domain ODE on a time grid."""

    times: np.ndarray          # shape (T,)
    sizes: np.ndarray          # shape (T, k)

    @property
    def total(self) -> np.ndarray:
        """Total covered length over time (sum of domain sizes)."""
        return self.sizes.sum(axis=1)

    def growth_exponent(self, skip_fraction: float = 0.5) -> float:
        """Log-log slope of total size vs time over the late segment.

        The paper postulates f(t) ~ sqrt(t), i.e. an exponent of 0.5.
        Early transients are skipped.
        """
        start = int(self.times.size * skip_fraction)
        if self.times.size - start < 2:
            raise ValueError("not enough samples to fit a growth exponent")
        x = np.log(self.times[start:])
        y = np.log(self.total[start:])
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)

    def final_profile(self) -> np.ndarray:
        """Final domain sizes normalized to sum 1 (compare to Lemma 13)."""
        final = self.sizes[-1]
        return final / final.sum()


def integrate_domains(
    initial_sizes: np.ndarray | list[float],
    t_final: float,
    covered: bool = False,
    mirror_right: bool = False,
    num_samples: int = 200,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> DomainTrajectory:
    """Integrate the §2.3 ODE from ``initial_sizes`` up to ``t_final``.

    All initial sizes must be positive.  The integration starts at
    ``t = 1`` (the system is singular at size 0, and the paper's
    approximation is only meaningful for sizes >> 1), sampling
    logarithmically so the sqrt-growth fit is well conditioned.  See
    :func:`domain_rhs` for the boundary-condition options.
    """
    # Imported here, not at module load: scipy.integrate takes about
    # half a second to import, and nothing else in the package needs it.
    from scipy.integrate import solve_ivp

    nu0 = np.asarray(initial_sizes, dtype=float)
    if nu0.ndim != 1 or nu0.size < 1:
        raise ValueError("initial_sizes must be a non-empty 1-d array")
    if np.any(nu0 <= 0):
        raise ValueError("all initial domain sizes must be positive")
    if t_final <= 1.0:
        raise ValueError(f"t_final must exceed 1, got {t_final}")
    times = np.logspace(0.0, np.log10(t_final), num_samples)

    def rhs(_t: float, nu: np.ndarray) -> np.ndarray:
        return domain_rhs(nu, covered, mirror_right)

    solution = solve_ivp(
        rhs,
        (times[0], times[-1]),
        nu0,
        t_eval=times,
        rtol=rtol,
        atol=atol,
        method="RK45",
    )
    if not solution.success:  # pragma: no cover - defensive
        raise RuntimeError(f"ODE integration failed: {solution.message}")
    return DomainTrajectory(times=solution.t, sizes=solution.y.T.copy())


def equilibrium_check(sizes: np.ndarray | list[float]) -> float:
    """Max |d nu_i/dt| for a cyclic configuration (0 at equilibrium).

    After coverage the stationary solution is the uniform profile
    ``g_i = const`` (paper §2.3): equal domains have zero drift.
    """
    return float(np.abs(domain_rhs(np.asarray(sizes, float), covered=True)).max())
