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

:func:`integrate_domains` steps the system with adaptive
Dormand-Prince RK45 written in numpy, so the package needs numpy alone.
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


# The Dormand-Prince 5(4) pair: stage coefficients, 5th-order weights,
# error weights and the quartic dense-output matrix of Shampine (1986).
# The stage times are not needed: the system is autonomous.
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([
    -71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40,
])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
#: Step-size control: safety factor, the error exponent of an order-4
#: estimator, and the clamp on the step factor.
_SAFETY, _ERROR_EXPONENT, _MIN_FACTOR, _MAX_FACTOR = 0.9, -1 / 5, 0.2, 10


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


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

    The integrator is adaptive Dormand-Prince RK45 with the initial
    step and step control of Hairer, Norsett & Wanner (II.4): an RMS
    error norm, step factors of 0.9 err^(-1/5) clamped to [0.2, 10]
    (at most 1 right after a rejection), steps clipped at ``t_final``,
    and each sample read from the quartic interpolant of the step that
    reaches it.  The tests pin its trajectories to those of the
    reference RK45 implementation it follows.  A step that must shrink
    below ten ulps of ``t`` raises ``RuntimeError``.
    """
    nu0 = np.asarray(initial_sizes, dtype=float)
    if nu0.ndim != 1 or nu0.size < 1:
        raise ValueError("initial_sizes must be a non-empty 1-d array")
    if np.any(nu0 <= 0):
        raise ValueError("all initial domain sizes must be positive")
    if t_final <= 1.0:
        raise ValueError(f"t_final must exceed 1, got {t_final}")
    if num_samples < 2:
        raise ValueError(f"num_samples must be at least 2, got {num_samples}")
    times = np.logspace(0.0, np.log10(t_final), num_samples)

    def rhs(nu: np.ndarray) -> np.ndarray:
        return domain_rhs(nu, covered, mirror_right)

    t, t_bound = float(times[0]), float(times[-1])
    y, f = nu0, rhs(nu0)
    # The initial step (Hairer, Norsett & Wanner, II.4).
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    d2 = _rms((rhs(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t)

    stages = np.empty((7, y.size))
    samples: list[np.ndarray] = []
    sampled = 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"ODE integration failed: the step size fell below "
                    f"{min_step:.3g} at t = {t:.6g}"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            stages[0] = f
            for s in range(1, 6):
                stages[s] = rhs(y + np.dot(stages[:s].T, _RK45_A[s, :s]) * h)
            y_new = y + h * np.dot(stages[:-1].T, _RK45_B)
            f_new = stages[-1] = rhs(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(stages.T, _RK45_E) * h / scale)
            if error < 1:
                factor = (
                    _MAX_FACTOR if error == 0
                    else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                )
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        reached = np.searchsorted(times, t_new, side="right")
        if reached > sampled:
            x = (times[sampled:reached] - t) / h
            powers = np.cumprod(np.tile(x, (4, 1)), axis=0)
            dense = h * np.dot(stages.T.dot(_RK45_P), powers)
            dense += y[:, None]
            samples.append(dense)
            sampled = reached
        t, y, f = t_new, y_new, f_new
    return DomainTrajectory(times=times, sizes=np.hstack(samples).T.copy())


def equilibrium_check(sizes: np.ndarray | list[float]) -> float:
    """Max |d nu_i/dt| for a cyclic configuration (0 at equilibrium).

    After coverage the stationary solution is the uniform profile
    ``g_i = const`` (paper §2.3): equal domains have zero drift.
    """
    return float(np.abs(domain_rhs(np.asarray(sizes, float), covered=True)).max())
