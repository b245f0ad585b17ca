"""[S2.3] The continuous-time approximation vs the discrete system.

Three postulates of paper §2.3, measured: sqrt(t) growth (ODE and
discrete), the ~1/i domain profile, and uniform domains as the
post-cover equilibrium.

The discrete trace steps one trajectory in O(k) per round and builds
its snapshots in array ops; the serial trace on the oracle
(``RingRotorRouter`` + ``VisitTypeTracker`` + ``domain_snapshot``)
must return identical rounds and snapshots, and the trace must be at
least ``MIN_SPEEDUP`` times faster than it.
"""

import time

from conftest import run_once

import numpy as np

from repro.analysis.domains_stats import trace_domains
from repro.core import placement, pointers
from repro.core.domains import VisitTypeTracker, domain_snapshot
from repro.core.ring import RingRotorRouter
from repro.theory.ode import equilibrium_check, integrate_domains

MIN_SPEEDUP = 2.5


def _serial_trace(n, agents, directions, total_rounds, sample_every):
    """The stop-at-cover trace on the oracle: (rounds, snapshots)."""
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    rounds, snapshots = [], []
    for _ in range(total_rounds):
        tracker.advance()
        if engine.round % sample_every == 0:
            if max(engine.counts.values()) <= 2:
                rounds.append(engine.round)
                snapshots.append(domain_snapshot(engine, tracker))
        if engine.unvisited == 0:
            break
    return rounds, snapshots


def test_sqrt_growth_ode_and_discrete(benchmark):
    n, k = 512, 8
    args = (
        n, placement.all_on_one(k), pointers.ring_toward_node(n, 0),
        n * n, n // 8,
    )
    fast_timings: list[float] = []
    serial_timings: list[float] = []
    outputs: dict[str, object] = {}

    def run_fast():
        started = time.perf_counter()
        outputs["fast"] = trace_domains(*args, stop_at_cover=True)
        fast_timings.append(time.perf_counter() - started)
        return outputs["fast"]

    def run_serial():
        started = time.perf_counter()
        outputs["serial"] = _serial_trace(*args)
        serial_timings.append(time.perf_counter() - started)

    # Timed inside the workload so the ratio exists under
    # --benchmark-disable too; the sides interleave (best-of-3 around
    # one serial run) so noisy neighbours hit both alike.
    benchmark(run_fast)
    run_serial()
    while len(fast_timings) < 3:
        run_fast()

    # Identity first: the speed-up counts only for equal traces.
    trace = outputs["fast"]
    assert (trace.rounds, trace.snapshots) == outputs["serial"]

    ode_exp = integrate_domains(
        [1.0] * k, t_final=float(n * n) / 16.0
    ).growth_exponent()
    discrete_exp = trace.growth_exponent()
    speedup = min(serial_timings) / min(fast_timings)
    benchmark.extra_info["ODE exponent"] = round(ode_exp, 4)
    benchmark.extra_info["discrete exponent"] = round(discrete_exp, 4)
    benchmark.extra_info["trace_sec"] = round(min(fast_timings), 4)
    benchmark.extra_info["serial_sec"] = round(min(serial_timings), 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    assert abs(ode_exp - 0.5) < 0.05
    assert abs(discrete_exp - 0.5) < 0.08
    assert speedup >= MIN_SPEEDUP, (
        f"trace only {speedup:.1f}x the serial oracle "
        f"({min(fast_timings):.3f}s vs {min(serial_timings):.3f}s)"
    )


def test_ode_profile_matches_lemma13(benchmark):
    """Path-mode ODE (open frontier, mirrored wall) converges to the
    Lemma 13 stationary profile — the lemma's construction, integrated."""
    k = 12

    def measure():
        trajectory = integrate_domains(
            [1.0] * k, t_final=1e7, mirror_right=True
        )
        return trajectory.final_profile()

    profile = run_once(benchmark, measure)
    # Orient so the frontier (largest) domain is first.
    if profile[-1] > profile[0]:
        profile = profile[::-1]
    from repro.theory.sequences import solve_profile

    predicted = np.asarray(solve_profile(k).a[1:], dtype=float)
    predicted /= predicted.sum()
    correlation = float(np.corrcoef(profile, predicted)[0, 1])
    max_error = float(np.abs(profile - predicted).max())
    benchmark.extra_info["ODE/Lemma13 correlation"] = round(correlation, 4)
    benchmark.extra_info["max share error"] = round(max_error, 4)
    assert correlation > 0.99


def test_ring_ode_halves_match_lemma13(benchmark):
    """The ring's symmetric two-frontier profile folds into two copies
    of the Lemma 13 path profile for k/2 agents (the Thm 1 reduction)."""
    k = 12

    def measure():
        trajectory = integrate_domains([1.0] * k, t_final=1e7)
        return trajectory.final_profile()

    profile = run_once(benchmark, measure)
    half = profile[: k // 2]
    half = half / half.sum()
    from repro.theory.sequences import solve_profile

    predicted = np.asarray(solve_profile(k // 2).a[1:], dtype=float)
    predicted /= predicted.sum()
    correlation = float(np.corrcoef(half, predicted)[0, 1])
    benchmark.extra_info["half-profile correlation"] = round(correlation, 4)
    assert correlation > 0.99


def test_equilibrium_uniform(benchmark):
    def measure():
        return (
            equilibrium_check([50.0] * 10),
            equilibrium_check([45.0, 55.0] * 5),
        )

    drift_equal, drift_perturbed = run_once(benchmark, measure)
    benchmark.extra_info["drift at uniform"] = drift_equal
    benchmark.extra_info["drift perturbed"] = drift_perturbed
    assert drift_equal == 0.0
    assert drift_perturbed > 0.0
