"""Measurement harnesses turning the simulators into experiment data.

* :mod:`repro.analysis.cover_time` — cover-time measurement for both
  models under any placement/pointer initialization;
* :mod:`repro.analysis.return_time` — Theorem 6 measurements (exact
  limit-cycle return times);
* :mod:`repro.analysis.speedup` — speed-up tables vs. k;
* :mod:`repro.analysis.scaling` — power-law fits and flatness checks
  used to verify the paper's Θ-shapes;
* :mod:`repro.analysis.remote` — remote vertices (Definition 2,
  Lemma 15) and the Theorem 4 adversary;
* :mod:`repro.analysis.domains_stats` — domain-evolution traces
  (Lemma 12 convergence, Figure 1 border statistics, §2.3 growth);
* :mod:`repro.analysis.backend` — the analysis→sweep bridge: a
  :class:`~repro.analysis.backend.MeasurementPlan` collects the
  per-cell measurement requests an experiment makes and executes them
  through the batched sweep executor; ``backend="reference"`` runs the
  original serial harnesses instead, as the tests' bit-identical
  oracle.
"""

from repro.analysis.backend import BackendStats, MeasurementPlan
from repro.analysis.cover_time import (
    ring_rotor_cover_time,
    ring_walk_cover_estimate,
    rotor_cover_time_general,
)
from repro.analysis.remote import (
    count_remote_vertices,
    is_remote,
    remote_vertex_mask,
)
from repro.analysis.scaling import fit_power_law, flatness, normalized

__all__ = [
    "BackendStats",
    "MeasurementPlan",
    "ring_rotor_cover_time",
    "ring_walk_cover_estimate",
    "rotor_cover_time_general",
    "remote_vertex_mask",
    "count_remote_vertices",
    "is_remote",
    "fit_power_law",
    "flatness",
    "normalized",
]
