"""Analytical toolkit: the paper's sequences, bounds, ODE and token game.

* :mod:`repro.theory.sequences` — the Lemma 13 normalized domain-size
  profile {a_i} (solved numerically exactly as constructed in the
  proof: bisection on the free parameter c of the {b_i} recurrence);
* :mod:`repro.theory.bounds` — every Θ(...) shape of Table 1 as an
  explicit normalization formula, plus harmonic numbers;
* :mod:`repro.theory.ode` — the continuous-time approximation of §2.3,
  integrated by adaptive Dormand-Prince RK45 in numpy;
* :mod:`repro.theory.token_game` — the one-player token game from the
  appendix proof of Lemma 8, with its invariants executable.
"""

from repro.theory.bounds import (
    harmonic_number,
    rotor_cover_best,
    rotor_cover_worst,
    rotor_return_time,
    walk_cover_best,
    walk_cover_worst,
)
from repro.theory.ode import integrate_domains
from repro.theory.sequences import ProfileSequence, solve_profile
from repro.theory.token_game import TokenGame

__all__ = [
    "ProfileSequence",
    "solve_profile",
    "harmonic_number",
    "rotor_cover_worst",
    "rotor_cover_best",
    "rotor_return_time",
    "walk_cover_worst",
    "walk_cover_best",
    "integrate_domains",
    "TokenGame",
]
