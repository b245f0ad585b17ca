"""Experiment reproductions: one module per paper artifact.

Every experiment module follows one protocol.  Each report runner is
``run_<name>(plan, **sizes) -> Report``, and its keyword defaults are
the full-size reproduction.  A runner with a measurement grid
schedules its cells on the
:class:`repro.analysis.backend.MeasurementPlan` it is given and
executes it; the figures and the §2.3 comparison leave it empty.  The
module-level ``QUICK`` dict maps the module's runners, in report
order, to their ``--quick`` keyword overrides.  ``python -m repro run
<name> [--quick]`` (see :mod:`repro.cli`) is the one entry point::

    python -m repro run table1
    python -m repro run theorem1 --quick --jobs 2
    python -m repro all --quick

The benchmark suite (``benchmarks/``) calls the same planners and
runners with scaled-down parameters; EXPERIMENTS.md records the
outcomes side by side with the paper's claims.

| Module            | Paper artifact                                   |
|-------------------|--------------------------------------------------|
| table1            | Table 1 (cover & return times, both models)      |
| deployments       | Theorem 1 Phase A/B1/B2 construction (Figure 2)  |
| theorem1          | Worst-case placement cover Θ(n²/log k)           |
| theorem2          | Upper bound for arbitrary initializations        |
| theorem3          | Equally-spaced placement cover O(n²/k²)          |
| theorem4          | Lower bound Ω(n²/k²) via remote vertices         |
| theorem5          | k random walks, best placement Θ((n/k)²log²k)    |
| theorem6          | Return time Θ(n/k)                               |
| figures           | Figure 1 (border types) and Figure 2 (trace)     |
| continuous        | §2.3 ODE vs discrete simulation                  |
| speedup_graphs    | Multi-agent speed-up on general graphs ([27])    |
| stabilization     | Time to the limit cycle across initializations   |
"""
