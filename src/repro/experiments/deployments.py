"""The Theorem 1 delayed deployment, executed (paper §3.1, Figure 2).

The proof of Theorem 1 *constructs* a delayed deployment of the k-agent
rotor-router on the path (all agents start at the left endpoint,
pointers toward it) that maintains *desirable configurations*: agent i
parked at position ``p_i * S`` (``p_i = a_i + ... + a_k`` from the
Lemma 13 profile), every visited node's pointer pointing left.  The
deployment alternates:

* **Phase A** — build the first desirable configuration of length S0 by
  releasing agents one at a time;
* **Phase B1** — release everyone for ``ceil(2 a_k S multiplier)``
  rounds (the paper uses ``multiplier = k^4``; it is a parameter here
  because the proof's constants assume k >= 10^6 while experiments run
  k in the tens);
* **Phase B2** — re-park the agents one at a time at the next desirable
  configuration of length ``S + ceil(a_1 a_k multiplier) + 12 k``.

Because only B1 rounds are fully active, Lemma 3 sandwiches the real
(undelayed) cover time between the B1 total and the deployment total —
an executable proof skeleton.  :func:`run_theorem1_deployment` returns
the full trace (S_j ladder, phase durations, violations of the
desirable-configuration invariants) and the sandwich verdict.

The path runs on :class:`repro.sweep.batch_ring.Trajectory`: B1 and the
undelayed run are plain runs with a cover stop, and each agent released
in Phases A and B2 walks to its next back-pointing node or its target
in one jump per leg.  Stepping
:class:`repro.core.path.PathRotorRouter` under
:func:`repro.core.delayed.hold_all_except_one_at` gives the same trace;
the tests hold it as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sweep.batch_ring import Trajectory
from repro.theory.sequences import ProfileSequence, solve_profile


class DeploymentError(RuntimeError):
    """The construction left its expected envelope (budget/invariant)."""


@dataclass
class Theorem1Trace:
    """Execution trace of the Theorem 1 deployment on the path."""

    n: int
    k: int
    multiplier: float
    s_ladder: list[int] = field(default_factory=list)
    phase_a_rounds: int = 0
    phase_b1_rounds: int = 0
    phase_b2_rounds: int = 0
    cover_round: int | None = None
    invariant_violations: list[str] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return self.phase_a_rounds + self.phase_b1_rounds + self.phase_b2_rounds

    def slow_down_bounds(self) -> tuple[int, int]:
        """Lemma 3: (tau, T) bracketing the undelayed cover time.

        Only B1 rounds are fully active, so tau = B1 total.
        """
        if self.cover_round is None:
            raise DeploymentError("deployment did not cover the path")
        return self.phase_b1_rounds, self.total_rounds


def _walk_agent_to(
    path: Trajectory,
    start: int,
    target: int,
    budget: int,
) -> int:
    """Walk one released agent from ``start`` until it stands on
    ``target`` having just moved rightward (:meth:`Trajectory.walk`);
    returns rounds used.

    A rightward arrival guarantees the pointers behind the agent point
    left, preserving the desirable-configuration invariant.  The agent
    bounces within its domain, so the stop condition is eventually
    reached whether the target lies ahead of or behind the start.
    """
    used = path.walk(start, target, budget)
    if used < 0:
        raise DeploymentError(
            f"agent failed to reach {target} from {start} within "
            f"{budget} rounds"
        )
    return used


def _agent_positions_desc(path: Trajectory) -> list[int]:
    """Agent positions, largest first (agent 1 = frontier agent)."""
    return [
        v for v in sorted(path.occupied, reverse=True)
        for _ in range(path.occupied[v])
    ]


def _targets(profile: ProfileSequence, length: int) -> list[int]:
    """Desirable-configuration positions v_i = round(p_i * length),
    for i = 1..k (descending: index 0 is the frontier agent)."""
    p = profile.p
    targets = [max(1, round(p[i] * length)) for i in range(1, profile.k + 1)]
    # Enforce strictly decreasing positions (integer rounding can
    # collide at small S; the paper's S is large enough not to).
    for i in range(1, len(targets)):
        if targets[i] >= targets[i - 1]:
            targets[i] = targets[i - 1] - 1
    if targets[-1] < 1:
        raise DeploymentError(
            f"length {length} too small to park {profile.k} distinct agents"
        )
    return targets


def _check_desirable(
    path: Trajectory,
    targets: list[int],
    trace: Theorem1Trace,
    label: str,
) -> None:
    """Record any deviation from the desirable-configuration invariants."""
    positions = _agent_positions_desc(path)
    if positions != targets:
        trace.invariant_violations.append(
            f"{label}: positions {positions} != targets {targets}"
        )
    frontier, bits = targets[0], path.bits
    bad_pointers = [
        v for v in range(1, frontier) if bits[v] and v not in path.occupied
    ]
    if bad_pointers:
        trace.invariant_violations.append(
            f"{label}: {len(bad_pointers)} visited pointers not leftward "
            f"(first: {bad_pointers[:5]})"
        )


def run_theorem1_deployment(
    n: int,
    k: int,
    multiplier: float | None = None,
    initial_length: int | None = None,
    max_total_rounds: int = 50_000_000,
) -> Theorem1Trace:
    """Execute the Theorem 1 deployment on the n-node path with k agents.

    ``multiplier`` plays the role of the paper's ``k^4`` (default:
    ``k**4`` capped to keep small-instance runs practical);
    ``initial_length`` is the paper's ``S_0 = n / sqrt(k log k)``.
    """
    if k <= 3:
        raise ValueError(f"the Lemma 13 profile requires k > 3, got {k}")
    if n < 8 * k:
        raise ValueError(f"path too short: n={n} for k={k}")
    profile = solve_profile(k)
    if multiplier is None:
        multiplier = float(min(k ** 4, 16 * k * k))
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")

    if initial_length is None:
        initial_length = max(
            int(n / math.sqrt(k * max(math.log(k), 1.0))),
            int(math.ceil(3.0 / profile.a[k])),
        )
    if initial_length >= n:
        raise ValueError(
            f"initial length {initial_length} must be below n={n}"
        )

    # All agents at the left endpoint; every pointer toward it
    # ("negatively initialized": first visits reflect).
    path = Trajectory(n, bytearray(n), {0: k}, path=True)
    trace = Theorem1Trace(n=n, k=k, multiplier=multiplier)

    # ------------------------------------------------------------ Phase A
    s_value = initial_length
    targets = _targets(profile, s_value)
    for i in range(k):
        budget = 4 * (targets[i] + 2) ** 2 + 64
        _walk_agent_to(path, 0, targets[i], budget)
    trace.phase_a_rounds = path.round
    trace.s_ladder.append(s_value)
    _check_desirable(path, targets, trace, f"phase A (S={s_value})")

    # ------------------------------------------------------------ Phase B
    a1, ak = profile.a[1], profile.a[k]
    increment = max(1, math.ceil(a1 * ak * multiplier)) + 12 * k
    while path.unvisited > 0:
        if path.round > max_total_rounds:
            raise DeploymentError(
                f"deployment exceeded {max_total_rounds} rounds"
            )
        # B1: everyone runs for ceil(2 a_k S multiplier) rounds.
        b1_rounds = int(math.ceil(2.0 * ak * s_value * multiplier))
        before = path.round
        path.run(b1_rounds, stop=0)
        trace.phase_b1_rounds += path.round - before
        if path.unvisited == 0:
            break

        # B2: re-park at the next desirable configuration.
        s_next = min(s_value + increment, n - 1)
        targets = _targets(profile, s_next)
        before = path.round
        current = _agent_positions_desc(path)
        for i in range(k):
            budget = 16 * (s_next + 2) * (i + 2) * (increment + 26 * k) + 256
            _walk_agent_to(path, current[i], targets[i], budget)
            current = _agent_positions_desc(path)
        trace.phase_b2_rounds += path.round - before
        _check_desirable(path, targets, trace, f"phase B2 (S={s_next})")
        s_value = s_next
        trace.s_ladder.append(s_value)

    trace.cover_round = path.cover_round
    return trace


def undelayed_path_cover_time(n: int, k: int, max_rounds: int | None = None) -> int:
    """Cover time of the *undelayed* system from the same initialization
    (all agents at node 0, pointers toward it) — the quantity that
    Theorem 1 bounds and Lemma 3 sandwiches against the deployment."""
    if n < 2 or k < 1:
        raise ValueError(
            f"need a path of n >= 2 nodes and k >= 1 agents, got {n}, {k}"
        )
    path = Trajectory(n, bytearray(n), {0: k}, path=True)
    budget = max_rounds if max_rounds is not None else 8 * n * n + 64
    path.run(budget, stop=0)
    if path.unvisited:
        raise RuntimeError(
            f"not covered within {budget} rounds "
            f"({path.unvisited} nodes unvisited)"
        )
    return path.round
