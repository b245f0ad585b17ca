"""[F1.borders] Figure 1: borders are vertex-type or edge-type.

Census over a stabilized run: (almost) every border between adjacent
lazy domains is one of Figure 1's two shapes; transients (wider gaps,
possible only for a step right after a first traversal) are rare.

The census runs the four configurations as lanes of one batched call;
the serial per-configuration census on the oracle
(``VisitTypeTracker`` + ``domain_snapshot`` + ``classify_borders``)
must return identical Counters, and the batched call must be at least
``MIN_SPEEDUP`` times faster than it.

The census classifies its sampled rounds a block at a time with
``border_counts``, which finds every cyclic run by binary search over
the run boundaries of each row.  It used to scan every node of each
row laid out twice end to end, with ``np.minimum.accumulate`` /
``np.maximum.accumulate`` and a prefix sum; that version is kept
verbatim below (``_legacy_border_counts``) as the baseline.  On the
blocks the census itself hands to ``border_counts``, the two must
return equal tallies, and the production version must be at least
``MIN_SPEEDUP_VS_LEGACY`` times faster.
"""

import time
from collections import Counter

import numpy as np

import repro.analysis.domains_stats as domains_stats
from repro.analysis.domains_stats import border_type_census
from repro.core import placement, pointers
from repro.core.domains import (
    BorderType,
    DomainError,
    VisitTypeTracker,
    _Parts,
    border_counts,
    classify_borders,
    domain_snapshot,
)
from repro.core.ring import RingRotorRouter

N = 192
BURN_IN = 25 * N
OBSERVATION_ROUNDS = 10 * N
MIN_SPEEDUP = 3.0
MIN_SPEEDUP_VS_LEGACY = 1.5

CASES = (
    (4, "spaced", placement.equally_spaced(N, 4)),
    (8, "spaced", placement.equally_spaced(N, 8)),
    (6, "random", placement.random_nodes(N, 6, seed=3, distinct=True)),
    (8, "random", placement.random_nodes(N, 8, seed=5, distinct=True)),
)
LANES = [(agents, pointers.ring_negative(N, agents)) for _, _, agents in CASES]


def _legacy_doubled(a: np.ndarray) -> np.ndarray:
    """Each row laid out twice end to end, all rows flattened."""
    return np.concatenate((a, a), axis=1).ravel()


def _legacy_domain_parts(
    counts: np.ndarray,
    pointers: np.ndarray,
    visited: np.ndarray,
    propagation: np.ndarray,
) -> _Parts:
    """Arcs and lazy runs of every row's domains, in array operations.

    Row ``r`` of the ``(R, n)`` inputs describes one ring configuration:
    agent counts, pointer bits (1 = clockwise), visited nodes, and the
    nodes whose most recent visit was a PROPAGATION.  Each part equals
    the :class:`Domain` :func:`domain_snapshot` builds for it.

    Each row is laid out twice end to end and all rows are flattened,
    so that cyclic scans become 1-D accumulations over positions:

    1. **Arcs.**  A visited free node ``v`` between consecutive agents
       ``a`` and ``b`` has ``o(v) = a`` if its pointer is clockwise and
       ``o(v) = b`` otherwise; with one occupied node, every visited
       node maps to it.  An anchor's arc extends over the run of
       neighbours mapping to it, found as the distance to the nearest
       stop each way (``np.minimum``/``np.maximum.accumulate``), so
       transient nodes mapping to an agent they are cut off from stay
       outside every arc, as in the serial expansion.  A shared anchor
       splits its arc as :func:`domain_snapshot` does, keeping an
       empty half.
    2. **Lazy runs.**  The first longest PROPAGATION run of each part
       is its head run (clipped at the part's start) or the best run
       ending inside the rest of the part, picked by
       ``np.maximum.reduceat`` over a (length, -end) key.

    Raises :class:`DomainError` when a row holds 3+ agents on a node.
    """
    rows, n = counts.shape
    crowded = int(counts.max())
    if crowded > 2:
        raise DomainError(
            f"{crowded} agents on one node: domains are undefined (Lemma 5)"
        )
    width = 2 * n
    size = rows * width
    pos = np.arange(size)

    def next_at_or_after(mask: np.ndarray) -> np.ndarray:
        marks = np.where(mask, pos, size)
        return np.minimum.accumulate(marks[::-1])[::-1]

    def last_at_or_before(mask: np.ndarray) -> np.ndarray:
        return np.maximum.accumulate(np.where(mask, pos, -1))

    occupied = counts > 0
    clockwise = pointers.astype(bool)
    one_site = (np.count_nonzero(occupied, axis=1) == 1)[:, None]
    free = visited & ~occupied
    # Stops of the clockwise expansion (nodes not mapping to the agent
    # anticlockwise of them) and of the anticlockwise expansion.
    stop_cw = _legacy_doubled(~(free & (clockwise | one_site)))
    stop_acw = _legacy_doubled(~(free & (~clockwise | one_site)))

    anchor_rows, anchors = np.nonzero(occupied)
    at = anchor_rows * width + anchors
    # The anchor's own images bound both scans to n - 1 steps.
    right = next_at_or_after(stop_cw)[at + 1] - (at + 1)
    left = (at + n - 1) - last_at_or_before(stop_acw)[at + n - 1]
    shared = counts[anchor_rows, anchors] == 2
    bit = clockwise[anchor_rows, anchors].astype(np.int64)
    # Parts in anchor order, two slots per anchor: an anchor holding
    # one agent fills the first with its whole arc (at most the ring);
    # a shared anchor splits it, the anchor joining the anticlockwise
    # part iff its pointer is clockwise, and keeps both halves, an
    # empty one too, as domain_snapshot does.  Disjoint arcs make
    # anchor order the cyclic order of the parts, all the borders
    # depend on.
    first_length = np.where(shared, left + bit, np.minimum(left + right + 1, n))
    second_length = np.where(shared, right + 1 - bit, 0)
    keep = np.stack((np.ones_like(shared), shared), axis=1).ravel()
    part_rows = np.repeat(anchor_rows, 2)[keep]
    part_anchor = np.repeat(anchors, 2)[keep]
    part_start = (
        np.stack((anchors - left, anchors + bit), axis=1).ravel()[keep] % n
    )
    part_length = np.stack((first_length, second_length), axis=1).ravel()[keep]
    start = part_rows * width + part_start
    end = start + part_length

    prop = _legacy_doubled(propagation)
    head_end = np.minimum(next_at_or_after(~prop)[start], end)
    head_length = head_end - start
    run_length = pos - last_at_or_before(~prop)
    # Longest first: a larger key is a longer run, then an earlier end.
    key = run_length * size + (size - 1 - pos)
    best = np.maximum.reduceat(
        key, np.stack((head_end, end), axis=1).ravel()
    )[::2]
    tail_length = np.where(head_end < end, best // size, 0)
    tail_end = size - 1 - best % size
    use_head = head_length >= tail_length
    lazy_length = np.where(use_head, head_length, tail_length)
    lazy_start = np.where(use_head, start, tail_end - tail_length + 1) % n
    return _Parts(
        part_rows, part_anchor, part_start, part_length, lazy_start,
        lazy_length,
    )


def _legacy_border_counts(
    counts: np.ndarray,
    pointers: np.ndarray,
    visited: np.ndarray,
    propagation: np.ndarray,
) -> np.ndarray:
    """Border census of many configurations, one per row, in array ops.

    Row ``r`` of the ``(R, n)`` inputs describes one ring configuration:
    agent counts, pointer bits (1 = clockwise), visited nodes, and the
    nodes whose most recent visit was a PROPAGATION.  Returns an
    ``(R, 3)`` int64 array counting, in :class:`BorderType` order, the
    borders :func:`classify_borders` reports for
    :func:`domain_snapshot` of that configuration — exactly, including
    transient states; the tests compare the two row by row.

    The parts and their lazy runs come from :func:`_domain_parts`.
    Consecutive nonempty lazy runs of a row, cyclically, are classified
    by their gap; a prefix sum of unvisited nodes (over the doubled
    rows) drops borders with the unvisited region.  Raises
    :class:`DomainError` when a row holds 3+ agents on a node.
    """
    rows, n = counts.shape
    parts = _legacy_domain_parts(counts, pointers, visited, propagation)
    lazy = parts.lazy_length > 0
    lazy_rows = parts.rows[lazy]
    lazy_first = parts.lazy_start[lazy]
    lazy_last = (lazy_first + parts.lazy_length[lazy] - 1) % n
    index = np.arange(lazy_rows.size)
    row_first = np.searchsorted(lazy_rows, lazy_rows)
    row_last = np.searchsorted(lazy_rows, lazy_rows, side="right") - 1
    following = np.where(index == row_last, row_first, index + 1)
    gap = (lazy_first[following] - lazy_last) % n - 1
    unvisited = np.concatenate(([0], np.cumsum(_legacy_doubled(~visited))))
    after = lazy_rows * 2 * n + lazy_last + 1
    hidden = unvisited[after + np.maximum(gap, 0)] - unvisited[after]
    border = (row_last > row_first) & (hidden == 0)
    # Column 0 vertex-type (gap 1), 1 edge-type (gap 0), 2 transient.
    kind = np.where(gap == 1, 0, np.where(gap == 0, 1, 2))
    tally = np.bincount(
        lazy_rows[border] * 3 + kind[border], minlength=rows * 3
    )
    return tally.reshape(rows, 3)


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


def test_border_counts_vs_legacy(benchmark, monkeypatch):
    blocks: list[tuple[np.ndarray, ...]] = []

    def record(*rows):
        # The census reuses its block buffers: keep copies.
        blocks.append(tuple(np.array(a) for a in rows))
        return border_counts(*rows)

    monkeypatch.setattr(domains_stats, "border_counts", record)
    border_type_census(
        N, LANES, burn_in=BURN_IN, observation_rounds=OBSERVATION_ROUNDS
    )
    monkeypatch.undo()

    timings: dict[str, list[float]] = {"production": [], "legacy": []}
    tallies: dict[str, list[np.ndarray]] = {}

    def run(name, census):
        started = time.perf_counter()
        tallies[name] = [census(*block) for block in blocks]
        timings[name].append(time.perf_counter() - started)

    # Interleaved best-of-3 on the same blocks.
    benchmark(run, "production", border_counts)
    run("legacy", _legacy_border_counts)
    while len(timings["legacy"]) < 3:
        run("production", border_counts)
        run("legacy", _legacy_border_counts)

    assert all(
        np.array_equal(new, old)
        for new, old in zip(tallies["production"], tallies["legacy"], strict=True)
    )
    production, legacy = min(timings["production"]), min(timings["legacy"])
    speedup = legacy / production
    benchmark.extra_info["blocks"] = len(blocks)
    benchmark.extra_info["rows_per_block"] = len(blocks[0][0])
    benchmark.extra_info["production_sec"] = round(production, 4)
    benchmark.extra_info["legacy_sec"] = round(legacy, 4)
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP_VS_LEGACY, (
        f"border_counts only {speedup:.1f}x the doubled-row scan "
        f"({production:.3f}s vs {legacy:.3f}s on {len(blocks)} blocks)"
    )
