"""Reproduction of "The multi-agent rotor-router on the ring: a
deterministic alternative to parallel random walks" (Klasing, Kosowski,
Pajak, Sauerwald; PODC 2013 / Distributed Computing 30(2), 2017).

Public API overview
-------------------

Engines (the paper's model, §1.3):

>>> from repro import RingRotorRouter
>>> from repro.core import pointers, placement
>>> n, k = 64, 4
>>> engine = RingRotorRouter(
...     n,
...     pointers.ring_negative(n, placement.equally_spaced(n, k)),
...     placement.equally_spaced(n, k),
... )
>>> cover_time = engine.run_until_covered()

The comparison baseline (parallel random walks, §3.3):

>>> from repro import RingRandomWalks
>>> walks = RingRandomWalks(n, placement.equally_spaced(n, k), seed=7)
>>> walk_cover = walks.run_until_covered()

Subpackages
-----------
- :mod:`repro.core` — rotor-router engines, delayed deployments,
  domains, limit behaviour;
- :mod:`repro.graphs` — port-labeled graph substrate;
- :mod:`repro.randomwalk` — k independent walks + closed forms;
- :mod:`repro.theory` — Lemma 13 sequences, §2.3 ODE, token game,
  Θ-shapes;
- :mod:`repro.analysis` — measurement harnesses (cover/return times,
  scaling fits, remote vertices, domain statistics);
- :mod:`repro.loadbalance` — token-diffusion extension;
- :mod:`repro.experiments` — the Table 1 / figure / theorem
  reproductions, runnable as ``python -m repro run <name> [--quick]``;
- :mod:`repro.sweep` — declarative parameter sweeps over a batched
  ring kernel with a parallel executor and an on-disk result cache,
  runnable as ``python -m repro sweep <scenario>``.
"""

from repro.core.engine import MultiAgentRotorRouter
from repro.core.ring import RingRotorRouter
from repro.graphs.base import PortLabeledGraph
from repro.graphs.ring import ring_graph
from repro.randomwalk.ring_walk import RingRandomWalks
from repro.randomwalk.walker import ParallelRandomWalks

__version__ = "1.0.0"

__all__ = [
    "MultiAgentRotorRouter",
    "RingRotorRouter",
    "PortLabeledGraph",
    "ring_graph",
    "RingRandomWalks",
    "ParallelRandomWalks",
    "__version__",
]
