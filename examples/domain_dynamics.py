#!/usr/bin/env python3
"""Watch agent domains form, grow like sqrt(t), and equalize.

The paper's §2.2-2.3 story in numbers: start k agents on one node of
the ring with adversarial pointers, and watch

* the covered region grow like sqrt(t),
* the domains (here separated by the agents' positions) follow the
  Lemma 13 profile while the ring is uncovered,
* the lazy domains equalize after coverage (Lemma 12).

Run:  python examples/domain_dynamics.py [n] [k]
"""

import sys

from repro.analysis.domains_stats import trace_domains
from repro.core import placement, pointers
from repro.core.domains import VisitTypeTracker, domain_snapshot
from repro.core.ring import RingRotorRouter
from repro.theory.sequences import solve_profile


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 240
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 6

    directions = pointers.ring_toward_node(n, 0)
    engine = RingRotorRouter(
        n, directions, placement.all_on_one(k), track_counts=False
    )
    tracker = VisitTypeTracker(engine)

    print(f"n={n} ring, k={k} agents all on node 0, pointers toward it")
    print()
    checkpoints = [n // 8, n, 4 * n, 10 * n, 25 * n, 60 * n, 150 * n]
    for target in checkpoints:
        while engine.round < target:
            tracker.advance()
        if max(engine.counts.values()) > 2:
            print(f"round {engine.round:>7}: (domains not yet separated)")
            continue
        snapshot = domain_snapshot(engine, tracker)
        covered = n - len(snapshot.unvisited)
        print(
            f"round {engine.round:>7}: covered {covered:>4}/{n}  "
            f"domain sizes {snapshot.sizes()}"
        )
    print()

    # Growth exponent while uncovered (fresh run, sampled).
    trace = trace_domains(
        n,
        placement.all_on_one(k),
        directions,
        total_rounds=60 * n,
        sample_every=max(1, n // 4),
        stop_at_cover=True,
    )
    print(f"covered-region growth exponent: {trace.growth_exponent():.3f} "
          "(§2.3 predicts 0.5)")

    # Lemma 12: lazy domains equalize after coverage.
    while engine.unvisited:
        tracker.advance()
    for _ in range(80 * n):
        tracker.advance()
    snapshot = domain_snapshot(engine, tracker)
    print(f"lazy domain sizes after settling: {snapshot.lazy_sizes()} "
          f"(max adjacent difference "
          f"{snapshot.max_adjacent_lazy_difference()}; Lemma 12 bound 10)")

    if k > 3:
        profile = solve_profile(k)
        shares = ", ".join(f"{a:.3f}" for a in profile.a[1:])
        print(f"Lemma 13 uncovered-phase profile for reference: {shares}")


if __name__ == "__main__":
    main()
