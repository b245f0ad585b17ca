"""[F1.borders] Figure 1: borders are vertex-type or edge-type.

Census over a stabilized run: (almost) every border between adjacent
lazy domains is one of Figure 1's two shapes; transients (wider gaps,
possible only for a step right after a first traversal) are rare.

The census runs the four configurations as lanes of one batched call;
the serial per-configuration census on the oracle
(``VisitTypeTracker`` + ``domain_snapshot`` + ``classify_borders``)
must return identical Counters, and the batched call must be at least
``MIN_SPEEDUP`` times faster than it.
"""

import time
from collections import Counter

from repro.analysis.domains_stats import border_type_census
from repro.core import placement, pointers
from repro.core.domains import (
    BorderType,
    VisitTypeTracker,
    classify_borders,
    domain_snapshot,
)
from repro.core.ring import RingRotorRouter

N = 192
BURN_IN = 25 * N
OBSERVATION_ROUNDS = 10 * N
MIN_SPEEDUP = 3.0

CASES = (
    (4, "spaced", placement.equally_spaced(N, 4)),
    (8, "spaced", placement.equally_spaced(N, 8)),
    (6, "random", placement.random_nodes(N, 6, seed=3, distinct=True)),
    (8, "random", placement.random_nodes(N, 8, seed=5, distinct=True)),
)
LANES = [(agents, pointers.ring_negative(N, agents)) for _, _, agents in CASES]


def _serial_census(agents, directions):
    engine = RingRotorRouter(N, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    for _ in range(BURN_IN):
        tracker.advance()
    census = Counter()
    for _ in range(OBSERVATION_ROUNDS):
        tracker.advance()
        census.update(classify_borders(domain_snapshot(engine, tracker)))
    return census


def test_border_type_census(benchmark):
    batch_timings: list[float] = []
    serial_timings: list[float] = []
    outputs: dict[str, list] = {}

    def run_batch():
        started = time.perf_counter()
        outputs["batch"] = border_type_census(
            N, LANES, burn_in=BURN_IN, observation_rounds=OBSERVATION_ROUNDS
        )
        batch_timings.append(time.perf_counter() - started)
        return outputs["batch"]

    def run_serial():
        started = time.perf_counter()
        outputs["serial"] = [_serial_census(*lane) for lane in LANES]
        serial_timings.append(time.perf_counter() - started)

    # Timed inside the workload so the ratio exists under
    # --benchmark-disable too; the sides interleave (batch best-of-3
    # around one serial run) so noisy neighbours hit both alike.
    benchmark(run_batch)
    run_serial()
    while len(batch_timings) < 3:
        run_batch()

    # Identity first: the speed-up counts only for equal censuses.
    assert outputs["batch"] == outputs["serial"]

    speedup = min(serial_timings) / min(batch_timings)
    benchmark.extra_info["batch_sec"] = round(min(batch_timings), 4)
    benchmark.extra_info["serial_sec"] = round(min(serial_timings), 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    for (k, name, _), census in zip(CASES, outputs["batch"]):
        label = f"k={k}/{name}"
        vertex = census.get(BorderType.VERTEX, 0)
        edge = census.get(BorderType.EDGE, 0)
        transient = census.get(BorderType.TRANSIENT, 0)
        total = vertex + edge + transient
        benchmark.extra_info[label] = {
            "vertex": vertex, "edge": edge, "transient": transient,
        }
        assert total > 0, f"no borders observed for {label}"
        # Figure 1's claim: the two shapes dominate utterly.
        assert transient <= 0.02 * total, f"too many transients: {label}"
    assert speedup >= MIN_SPEEDUP, (
        f"batched census only {speedup:.1f}x the serial oracle "
        f"({min(batch_timings):.3f}s vs {min(serial_timings):.3f}s)"
    )
