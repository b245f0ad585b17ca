"""The multi-agent rotor-router: engines, deployments, domain analysis.

This package implements the paper's primary contribution:

* :mod:`repro.core.engine` — the reference engine on arbitrary
  port-labeled graphs (paper §1.3 model definition);
* :mod:`repro.core.ring` — a ring-specialized engine with O(k)-per-round
  stepping, exactly equivalent to the reference engine;
* :mod:`repro.core.pointers` / :mod:`repro.core.placement` — adversarial
  and benign initializations (pointer arrangements, agent placements);
* :mod:`repro.core.delayed` — delayed deployments and the slow-down
  lemma machinery (paper §2.1, Lemmas 1-3);
* :mod:`repro.core.path` — the O(k)-per-round path engine;
* :mod:`repro.core.domains` — agent domains, lazy domains, border
  classification on the ring (paper §2.2, Lemmas 4-12, Figure 1);
* :mod:`repro.core.limit` — limit-cycle detection, return times
  (paper §4) and Eulerian lock-in for the single agent.

The engines are the reference implementations the tests compare the
production paths against: the batched kernels of :mod:`repro.sweep`
and :class:`repro.sweep.batch_ring.Trajectory`, the one stepper of
every O(k) ring and path trajectory.  Outside this package only the
reference harnesses :mod:`repro.analysis.cover_time` and
:mod:`repro.analysis.return_time` construct an engine.
"""

from repro.core.engine import MultiAgentRotorRouter
from repro.core.ring import RingRotorRouter
from repro.core import placement, pointers

__all__ = [
    "MultiAgentRotorRouter",
    "RingRotorRouter",
    "placement",
    "pointers",
]
