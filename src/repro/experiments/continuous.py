"""§2.3 continuous-time approximation vs the discrete system.

The paper postulates, from the ODE model, that in the all-on-one worst
case (a) the covered region grows like sqrt(t) and (b) the relative
domain sizes follow the Lemma 13 profile a_i ~ 1/(i H_k).  The
reproduction measures both on the discrete simulator and integrates
the ODE itself as a cross-check:

* ODE growth exponent ~ 0.5 and discrete growth exponent ~ 0.5;
* the discrete end-state profile correlates with the Lemma 13 profile;
* after coverage, equal domain sizes are an ODE equilibrium and the
  discrete system's lazy domains equalize (Lemma 12's statement).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.backend import MeasurementPlan
from repro.analysis.domains_stats import (
    final_profile_vs_lemma13,
    trace_domains,
)
from repro.core import placement, pointers
from repro.experiments.harness import Report
from repro.theory.ode import equilibrium_check, integrate_domains
from repro.util.tables import Table

#: ``--quick`` keyword overrides of each runner, in report order.  None
#: yet: smaller sizes would change the report ``perfbench/expected.json``
#: pins.  The comparison schedules no cells on its plan.
QUICK = {"run_continuous": {}}


def run_growth_comparison(n: int = 1024, k: int = 8) -> Table:
    """sqrt-growth: ODE vs discrete covered-region size."""
    trajectory = integrate_domains([1.0] * k, t_final=float(n * n) / 16.0)
    ode_exponent = trajectory.growth_exponent()

    directions = pointers.ring_toward_node(n, 0)
    trace = trace_domains(
        n,
        placement.all_on_one(k),
        directions,
        total_rounds=n * n,
        sample_every=max(1, n // 8),
        stop_at_cover=True,
    )
    discrete_exponent = trace.growth_exponent()
    table = Table(
        columns=["model", "growth exponent", "target"],
        caption=f"Covered-region growth from all-on-one start (n={n}, k={k})",
        formats=[None, ".3f", None],
    )
    table.add_row("ODE (§2.3)", ode_exponent, "0.5")
    table.add_row("discrete rotor-router", discrete_exponent, "0.5")
    return table


def run_profile_comparison(n: int = 1024, k: int = 8) -> Table:
    """Domain-size profile vs the Lemma 13 prediction."""
    measured, predicted = final_profile_vs_lemma13(n, k, rounds_budget=n * n)
    table = Table(
        columns=["domain i", "measured share", "Lemma 13 share"],
        caption=f"Normalized domain profile near cover (n={n}, k={k}); "
        "largest (frontier) first",
        formats=["d", ".4f", ".4f"],
    )
    for i, (m, p) in enumerate(zip(measured, predicted), start=1):
        table.add_row(i, float(m), float(p))
    correlation = float(np.corrcoef(measured, predicted)[0, 1])
    table.caption += f" | correlation {correlation:.3f}"
    return table


def run_equilibrium_table(ks: tuple[int, ...] = (4, 8, 16)) -> Table:
    """Equal domains are the covered-phase ODE equilibrium."""
    table = Table(
        columns=["k", "|drift| equal sizes", "|drift| perturbed"],
        caption="ODE drift at the uniform profile vs a 10% perturbation",
        formats=["d", ".2e", ".2e"],
    )
    for k in ks:
        equal = [100.0] * k
        perturbed = [100.0 + (10.0 if i % 2 else -10.0) for i in range(k)]
        table.add_row(k, equilibrium_check(equal), equilibrium_check(perturbed))
    return table


def run_continuous(
    plan: MeasurementPlan, n: int = 1024, k: int = 8
) -> Report:
    report = Report(
        title="§2.3 continuous-time approximation vs discrete simulation",
        claim=(
            "covered region grows ~ sqrt(t); domain sizes follow the "
            "Lemma 13 profile; equal domains are the post-cover equilibrium"
        ),
    )
    report.add_table(run_growth_comparison(n, k))
    report.add_table(run_profile_comparison(n, k))
    report.add_table(run_equilibrium_table())
    return report
