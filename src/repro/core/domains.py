"""Agent domains on the ring (paper §2.2, Lemmas 4-12, Figure 1).

When k agents run on the ring, the visited nodes partition into
*domains*: the domain of an agent is the sub-path of nodes it was the
last to visit.  Formally the paper defines, for a visited node ``v``
not holding an agent, ``o(v, t)`` as the first node containing an agent
in the direction *opposite* to the pointer at ``v``; nodes sharing an
``o``-value form the domain of the agent at ``o(v, t)`` (Lemma 4).

The *lazy* domain ``V'_a(t)`` keeps only nodes whose last visit was by
a single agent and was a *propagation* (the agent moved on, instead of
reflecting back where it came from) — Definition 1.  Lazy domains are
insensitive to the +/-1 oscillation of borders and are the objects
whose sizes the paper proves converge (Lemma 12).

This module provides:

* :class:`VisitTypeTracker` — classifies every visit as propagation /
  reflection / multi-agent, online, in O(k) per round;
* :func:`domain_snapshot` — the exact domain/lazy-domain partition of a
  configuration (O(n));
* :func:`classify_borders` — vertex-type vs edge-type borders between
  adjacent lazy domains (Figure 1);
* :func:`domain_snapshots` — :func:`domain_snapshot` of many
  configurations at once, one row each, in array operations;
* :func:`border_counts` — the border census of many configurations at
  once, one row each, in array operations; equal to
  :func:`classify_borders` of :func:`domain_snapshot` row by row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.ring import RingRotorRouter


class VisitKind(enum.IntEnum):
    """Classification of the most recent visit to a node."""

    NEVER = 0          # node not visited yet (dummy domain V_bot)
    INITIAL = 1        # occupied at round 0 and not revisited since
    PROPAGATION = 2    # single agent arrived and will continue onward
    REFLECTION = 3     # single agent arrived and will bounce back
    MULTIPLE = 4       # two+ agents arrived (or arrival met a held agent)


class DomainError(RuntimeError):
    """Raised when domains are not well defined (3+ agents on a node)."""


@dataclass(frozen=True)
class Domain:
    """One agent domain: a contiguous arc of the ring.

    ``start`` is the first node of the arc walking clockwise and
    ``length`` its node count, so the arc is ``start, start+1, ...,
    start+length-1`` (mod n).  ``anchor`` is the agent node that owns
    the domain (the shared ``o``-value).  The lazy sub-arc is given by
    ``lazy_start``/``lazy_length`` (``lazy_length == 0`` when empty).
    """

    anchor: int
    start: int
    length: int
    lazy_start: int
    lazy_length: int

    def nodes(self, n: int) -> list[int]:
        return [(self.start + i) % n for i in range(self.length)]

    def lazy_nodes(self, n: int) -> list[int]:
        return [(self.lazy_start + i) % n for i in range(self.lazy_length)]

    def contains(self, n: int, v: int) -> bool:
        return (v - self.start) % n < self.length


@dataclass(frozen=True)
class DomainSnapshot:
    """The full domain partition of a configuration at one round."""

    round: int
    n: int
    domains: tuple[Domain, ...]   # in clockwise ring order
    unvisited: tuple[int, ...]    # the dummy domain V_bot

    def sizes(self) -> list[int]:
        return [d.length for d in self.domains]

    def lazy_sizes(self) -> list[int]:
        return [d.lazy_length for d in self.domains]

    def max_adjacent_lazy_difference(self) -> int:
        """Largest |size difference| between cyclically adjacent lazy
        domains — the quantity Lemma 12 proves converges to <= 10.

        Only meaningful once the ring is covered (no dummy domain
        separating the extremes)."""
        sizes = self.lazy_sizes()
        if len(sizes) < 2:
            return 0
        return max(
            abs(sizes[i] - sizes[(i + 1) % len(sizes)])
            for i in range(len(sizes))
        )


class VisitTypeTracker:
    """Online propagation/reflection classification for a ring engine.

    Drive the engine through :meth:`advance` (or call :meth:`observe`
    with the moves of every externally-performed step) and the tracker
    maintains, per node, the :class:`VisitKind` of its most recent
    visit plus the round it happened in.

    Classification rule: a visit is the arrival of agents at a node.
    If exactly one agent arrived at ``dst`` (and no held agent sat
    there), the agent's next exit leaves along the current pointer, so
    the visit is a PROPAGATION iff the pointer at ``dst`` now equals the
    agent's direction of travel; otherwise it is a REFLECTION.  Visits
    by two agents at once are MULTIPLE (not lazy-eligible).
    """

    def __init__(self, engine: RingRotorRouter) -> None:
        self.engine = engine
        n = engine.n
        self.kinds = [VisitKind.NEVER] * n
        self.last_visit_round = [-1] * n
        for v in engine.counts:
            self.kinds[v] = VisitKind.INITIAL
            self.last_visit_round[v] = engine.round

    def advance(self, holds: Mapping[int, int] | None = None) -> list:
        """Step the engine one round and classify the arrivals."""
        moves = self.engine.step(holds)
        self.observe(moves)
        return moves

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.advance()

    def observe(self, moves: Sequence[tuple[int, int, int]]) -> None:
        """Classify the arrivals of one already-performed round."""
        engine = self.engine
        n = engine.n
        arrivals: dict[int, tuple[int, int]] = {}
        for src, dst, cnt in moves:
            total, _ = arrivals.get(dst, (0, src))
            arrivals[dst] = (total + cnt, src)
        for dst, (total, src) in arrivals.items():
            if total == 1 and engine.counts.get(dst, 0) == 1:
                direction = 1 if (dst - src) % n == 1 else -1
                if engine.ptr[dst] == direction:
                    kind = VisitKind.PROPAGATION
                else:
                    kind = VisitKind.REFLECTION
            else:
                kind = VisitKind.MULTIPLE
            self.kinds[dst] = kind
            self.last_visit_round[dst] = engine.round


def _nearest_occupied(
    n: int, occupied: set[int]
) -> tuple[list[int], list[int]]:
    """For every node, the nearest occupied node clockwise/anticlockwise.

    A node containing an agent is its own nearest in both directions.
    Two sweeps in each direction handle the cyclic wrap-around.
    """
    nearest_cw = [-1] * n
    current = -1
    for v in range(2 * n - 1, -1, -1):
        idx = v % n
        if idx in occupied:
            current = idx
        nearest_cw[idx] = current
    nearest_acw = [-1] * n
    current = -1
    for v in range(2 * n):
        idx = v % n
        if idx in occupied:
            current = idx
        nearest_acw[idx] = current
    return nearest_cw, nearest_acw


def o_values(engine: RingRotorRouter) -> list[int | None]:
    """The paper's ``o(v, t)`` map for the current configuration.

    ``None`` encodes the undefined value (unvisited node).  An occupied
    node maps to itself; any other visited node maps to the first
    occupied node in the direction opposite to its pointer.
    """
    n = engine.n
    occupied = set(engine.counts)
    if not occupied:
        raise DomainError("no agents on the ring")
    nearest_cw, nearest_acw = _nearest_occupied(n, occupied)
    result: list[int | None] = [None] * n
    for v in range(n):
        if v in occupied:
            result[v] = v
        elif engine.visited[v]:
            # Opposite direction to the pointer: ptr -1 -> clockwise scan.
            result[v] = nearest_cw[v] if engine.ptr[v] == -1 else nearest_acw[v]
    return result


def _lazy_run(
    n: int,
    arc_start: int,
    arc_length: int,
    kinds: Sequence[VisitKind],
) -> tuple[int, int]:
    """Longest run of PROPAGATION nodes inside the arc.

    Lemma 6 guarantees the lazy nodes of a domain form a single run
    (up to endpoints); taking the longest run makes the computation
    total even mid-transient.  Returns ``(start, length)`` with length
    0 when the domain has no propagation-visited node.
    """
    best_start, best_length = arc_start, 0
    run_start, run_length = arc_start, 0
    for i in range(arc_length):
        v = (arc_start + i) % n
        if kinds[v] == VisitKind.PROPAGATION:
            if run_length == 0:
                run_start = v
            run_length += 1
            if run_length > best_length:
                best_start, best_length = run_start, run_length
        else:
            run_length = 0
    return best_start, best_length


def domain_snapshot(
    engine: RingRotorRouter,
    tracker: VisitTypeTracker | None = None,
) -> DomainSnapshot:
    """Compute the exact domain partition of the current configuration.

    Requires at most 2 agents per node (Lemma 5 guarantees this is
    preserved once true); raises :class:`DomainError` otherwise.  When
    ``tracker`` is omitted, lazy domains are reported as empty.
    """
    n = engine.n
    for v, c in engine.counts.items():
        if c > 2:
            raise DomainError(
                f"{c} agents at node {v}: domains are undefined (Lemma 5)"
            )
    omap = o_values(engine)
    kinds = tracker.kinds if tracker is not None else [VisitKind.NEVER] * n

    unvisited = tuple(v for v in range(n) if omap[v] is None)
    # Every visited node maps to a lone anchor.  A lone agent's arc is
    # all of them; a lone pair splits them as any shared anchor does,
    # by the side each node's o-value scan reaches the anchor from:
    # clockwise pointers after the anchor, anticlockwise ones before.
    lone_pair = len(engine.counts) == 1 and 2 in engine.counts.values()

    def reach(anchor: int, side: int) -> int:
        """Nodes past ``anchor`` on ``side`` (+1 clockwise) in its arc:
        the arc is contiguous (Lemma 4 / Lemma 6), so it ends at the
        first node with a different o-value."""
        steps = 0
        while steps < n - 1:
            candidate = (anchor + side * (steps + 1)) % n
            if omap[candidate] != anchor or (
                lone_pair and engine.ptr[candidate] != side
            ):
                break
            steps += 1
        return steps

    domains: list[Domain] = []
    for anchor in sorted(engine.counts):
        left_steps, right_steps = reach(anchor, -1), reach(anchor, 1)
        left = (anchor - left_steps) % n
        right = (anchor + right_steps) % n
        arc_start = left
        # A lone agent on a covered ring expands n - 1 steps each way:
        # its arc is then the whole ring, not the n - 1 nodes between.
        arc_length = min(left_steps + right_steps + 1, n)

        if engine.counts[anchor] == 2:
            # Two agents share the anchor: split the arc at the anchor.
            # With the pointer clockwise, the anchor joins the
            # anticlockwise part (paper §2.2); mirrored otherwise.
            acw_len = (anchor - left) % n  # nodes strictly left of anchor
            cw_len = (right - anchor) % n  # nodes strictly right of anchor
            if engine.ptr[anchor] == 1:
                first = (left, acw_len + 1)   # includes the anchor
                second = ((anchor + 1) % n, cw_len)
            else:
                first = (left, acw_len)
                second = (anchor, cw_len + 1)  # includes the anchor
            for part_start, part_length in (first, second):
                lazy_start, lazy_length = _lazy_run(
                    n, part_start, part_length, kinds
                )
                domains.append(
                    Domain(
                        anchor=anchor,
                        start=part_start,
                        length=part_length,
                        lazy_start=lazy_start,
                        lazy_length=lazy_length,
                    )
                )
        else:
            lazy_start, lazy_length = _lazy_run(n, arc_start, arc_length, kinds)
            domains.append(
                Domain(
                    anchor=anchor,
                    start=arc_start,
                    length=arc_length,
                    lazy_start=lazy_start,
                    lazy_length=lazy_length,
                )
            )

    domains.sort(key=lambda d: d.start)
    return DomainSnapshot(
        round=engine.round,
        n=n,
        domains=tuple(domains),
        unvisited=unvisited,
    )


class BorderType(enum.Enum):
    """Border shapes between adjacent lazy domains (paper Figure 1)."""

    VERTEX = "vertex"     # one vertex separates the two lazy arcs
    EDGE = "edge"         # the lazy arcs are adjacent (swap on the edge)
    TRANSIENT = "transient"  # wider gap: an edge traversed for the first
    # time in the last step or so (paper: "only in one special case")


def classify_borders(snapshot: DomainSnapshot) -> list[BorderType]:
    """Classify the border between each pair of adjacent lazy domains.

    Returns one entry per adjacent pair (cyclically) of *nonempty* lazy
    domains with no unvisited nodes between them.  Matches Figure 1:
    gap 1 -> vertex-type, gap 0 -> edge-type, anything else transient.
    """
    n = snapshot.n
    lazy = [d for d in snapshot.domains if d.lazy_length > 0]
    if len(lazy) < 2:
        return []
    unvisited = set(snapshot.unvisited)
    borders: list[BorderType] = []
    for i, dom in enumerate(lazy):
        nxt = lazy[(i + 1) % len(lazy)]
        if nxt is dom:
            break
        end = (dom.lazy_start + dom.lazy_length - 1) % n
        gap = (nxt.lazy_start - end) % n - 1
        between = [(end + 1 + j) % n for j in range(max(gap, 0))]
        if any(v in unvisited for v in between):
            continue  # border with the dummy domain, not an agent border
        if gap == 1:
            borders.append(BorderType.VERTEX)
        elif gap == 0:
            borders.append(BorderType.EDGE)
        else:
            borders.append(BorderType.TRANSIENT)
    return borders


def _check_rows(
    counts: np.ndarray,
    pointers: np.ndarray,
    visited: np.ndarray,
    propagation: np.ndarray,
) -> None:
    """Reject rows outside the model before any array work.

    The four arrays must be 2-D and of one shape, ``visited`` and
    ``propagation`` boolean, counts non-negative, and every occupied
    node visited (engines mark the nodes agents stand on visited);
    otherwise ``ValueError``.
    """
    arrays = (counts, pointers, visited, propagation)
    shapes = [np.shape(a) for a in arrays]
    if len(shapes[0]) != 2 or len(set(shapes)) != 1:
        raise ValueError(f"rows must be 2-D arrays of one shape, got {shapes}")
    if visited.dtype != bool or propagation.dtype != bool:
        raise ValueError("visited and propagation rows must be boolean")
    if (counts < 0).any():
        raise ValueError("agent counts must be non-negative")
    if ((counts > 0) & ~visited).any():
        raise ValueError("every occupied node must be visited")


def _run_ends(x: np.ndarray) -> np.ndarray:
    """Where the True runs of each row of ``x`` end, as sorted positions.

    ``x`` is an ``(R, n)`` boolean array of cyclic rows.  A run ends at
    its first False node ``v``; row ``r`` lists it at ``r*2n + v`` and
    ``r*2n + v + n``, as if the row were laid out twice end to end, and
    one sentinel, ``(R + 1)*2n``, closes the list.
    """
    rows, n = x.shape
    ends = ~x
    ends[:, 1:] &= x[:, :-1]
    ends[:, 0] &= x[:, -1]
    flat = np.flatnonzero(ends)
    flat += flat // n * n  # r*n + v -> r*2n + v
    # Two sorted runs and the sentinel: the stable sort merges them in
    # linear time.
    listed = np.concatenate((flat, flat + n, [(rows + 1) * 2 * n]))
    listed.sort(kind="stable")
    return listed


def _distance(
    ends: np.ndarray, x: np.ndarray, rows: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Cyclic distance from node ``at`` of each row to its first False.

    ``ends`` is :func:`_run_ends` of ``x``; ``at`` may be ``n``, node 0
    reached past the row's end.  The distance is 0 where ``x`` is False
    at ``at``, and at least ``n`` in a row with no False.
    """
    n = x.shape[1]
    position = rows * (2 * n) + at
    found = ends[np.searchsorted(ends, position)] - position
    return np.where(x[rows, at % n], found, 0)


@dataclass(frozen=True)
class _Parts:
    """The domain parts of many rows, flat, in row then anchor order.

    A shared anchor contributes its anticlockwise part, then its
    clockwise part, either possibly empty; any other anchor one part.
    Starts are node indices.
    """

    rows: np.ndarray
    anchor: np.ndarray
    start: np.ndarray
    length: np.ndarray
    lazy_start: np.ndarray
    lazy_length: np.ndarray


def _domain_parts(
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

    Every cyclic scan is one binary search over the run ends of a
    boolean row (:func:`_run_ends`, :func:`_distance`), so the work
    per row grows with its runs, not with its nodes:

    1. **Arcs.**  A visited free node ``v`` between consecutive agents
       ``a`` and ``b`` has ``o(v) = a`` if its pointer is clockwise and
       ``o(v) = b`` otherwise; with one agent on the ring, every
       visited node maps to it.  An anchor's arc extends over the run
       of neighbours mapping to it: clockwise, the distance from the
       next node to the first stop; anticlockwise, the same on the
       mirrored rows.  The anchor is a stop of both scans, which
       bounds them to n - 1 steps, and transient nodes mapping to an
       agent they are cut off from stay outside every arc, as in the
       serial expansion.  A shared anchor splits its arc as
       :func:`domain_snapshot` does, keeping an empty half; a lone
       pair, whose scans start and end at its own node, reads its
       halves off the pointers like any shared anchor, so they
       partition the visited nodes.
    2. **Lazy runs.**  The first longest PROPAGATION run of each part
       is its head run (the run at the part's start, clipped at the
       part's end) or the longest, then earliest, of the runs starting
       after the head inside the part, the last of them clipped at the
       part's end: ``np.maximum.reduceat`` over a (length, -start) key.

    Raises :class:`DomainError` when a row holds 3+ agents on a node or
    none, as :func:`domain_snapshot` does.
    """
    rows, n = counts.shape
    crowded = int(counts.max(initial=0))
    if crowded > 2:
        raise DomainError(
            f"{crowded} agents on one node: domains are undefined (Lemma 5)"
        )
    occupied = counts > 0
    sites = np.count_nonzero(occupied, axis=1)
    if not sites.all():
        raise DomainError("no agents on the ring")
    clockwise = pointers.astype(bool)
    lone_agent = (counts.sum(axis=1) == 1)[:, None]
    free = visited & ~occupied
    # Free nodes mapping to the agent anticlockwise of them, and the
    # mirrored rows of those mapping to the agent clockwise of them.
    to_acw_agent = free & (clockwise | lone_agent)
    to_cw_agent = (free & (~clockwise | lone_agent))[:, ::-1]

    anchor_rows, anchors = np.divmod(np.flatnonzero(occupied), n)
    right = _distance(
        _run_ends(to_acw_agent), to_acw_agent, anchor_rows, anchors + 1
    )
    # Node a - 1 is node n - a of the mirrored row.
    left = _distance(
        _run_ends(to_cw_agent), to_cw_agent, anchor_rows, n - anchors
    )
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

    run_ends = _run_ends(propagation)
    head_length = np.minimum(
        part_length, _distance(run_ends, propagation, part_rows, part_start)
    )
    # Positions on the doubled rows, as _run_ends lists them.
    start = part_rows * (2 * n) + part_start
    end = start + part_length
    run_starts = _run_ends(~propagation)
    run_stops = run_ends[np.searchsorted(run_ends, run_starts)]
    # Runs first..last start inside the part, after its head.  All but
    # the last end inside the part too; the last is clipped at its end.
    first = np.searchsorted(run_starts, start + head_length, side="right")
    stop = np.searchsorted(run_starts, end)
    has_tail = stop > first
    last = np.maximum(stop - 1, first)
    # Longest first: a larger key is a longer run, then an earlier start.
    span = run_starts[-1] + 1

    def keyed(stops: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return (stops - starts) * span + (span - 1 - starts)

    inner = np.maximum.reduceat(
        keyed(run_stops, run_starts), np.stack((first, last), axis=1).ravel()
    )[::2]
    last_key = keyed(np.minimum(run_stops[last], end), run_starts[last])
    best = np.where(last > first, np.maximum(inner, last_key), last_key)
    tail_length = np.where(has_tail, best // span, 0)
    use_head = head_length >= tail_length
    lazy_length = np.where(use_head, head_length, tail_length)
    lazy_start = np.where(use_head, part_start, (span - 1 - best % span) % n)
    return _Parts(
        part_rows, part_anchor, part_start, part_length, lazy_start,
        lazy_length,
    )


def domain_snapshots(
    counts: np.ndarray,
    pointers: np.ndarray,
    visited: np.ndarray,
    propagation: np.ndarray,
    rounds: Sequence[int],
) -> list[DomainSnapshot]:
    """:func:`domain_snapshot` of many configurations, in array ops.

    Takes the ``(R, n)`` rows :func:`border_counts` takes, plus each
    row's round, and returns one :class:`DomainSnapshot` per row, equal
    to :func:`domain_snapshot` of that configuration with its visit
    kinds; the tests compare the two row by row.  Malformed rows (see
    :func:`border_counts`) or a round count other than the row count
    raise ``ValueError``; a row holding 3+ agents on a node, or none,
    raises :class:`DomainError`.
    """
    _check_rows(counts, pointers, visited, propagation)
    rows, n = counts.shape
    if len(rounds) != rows:
        raise ValueError(f"{len(rounds)} rounds given for {rows} rows")
    parts = _domain_parts(counts, pointers, visited, propagation)
    # domain_snapshot sorts its parts by start, stably.
    order = np.argsort(parts.rows * n + parts.start, kind="stable")
    fields = np.stack(
        (parts.anchor, parts.start, parts.length, parts.lazy_start,
         parts.lazy_length),
        axis=1,
    )[order].tolist()
    part_bounds = np.searchsorted(parts.rows[order], np.arange(rows + 1))
    unvisited_rows, unvisited = np.nonzero(~visited)
    unvisited_bounds = np.searchsorted(unvisited_rows, np.arange(rows + 1))
    unvisited = unvisited.tolist()
    return [
        DomainSnapshot(
            round=int(rounds[r]),
            n=n,
            domains=tuple(
                Domain(*f)
                for f in fields[part_bounds[r]:part_bounds[r + 1]]
            ),
            unvisited=tuple(
                unvisited[unvisited_bounds[r]:unvisited_bounds[r + 1]]
            ),
        )
        for r in range(rows)
    ]


def border_counts(
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
    by their gap; a border with the unvisited region is dropped, found
    as an unvisited node less than the gap past a run's last node.
    Arrays that are not 2-D and of one shape, non-boolean visited or
    propagation rows, a negative count or an occupied node not visited
    raise ``ValueError``; a row holding 3+ agents on a node, or none,
    raises :class:`DomainError`.
    """
    _check_rows(counts, pointers, visited, propagation)
    rows, n = counts.shape
    parts = _domain_parts(counts, pointers, visited, propagation)
    lazy = parts.lazy_length > 0
    lazy_rows = parts.rows[lazy]
    lazy_first = parts.lazy_start[lazy]
    lazy_last = (lazy_first + parts.lazy_length[lazy] - 1) % n
    index = np.arange(lazy_rows.size)
    row_first = np.searchsorted(lazy_rows, lazy_rows)
    row_last = np.searchsorted(lazy_rows, lazy_rows, side="right") - 1
    following = np.where(index == row_last, row_first, index + 1)
    gap = (lazy_first[following] - lazy_last) % n - 1
    room = _distance(_run_ends(visited), visited, lazy_rows, lazy_last + 1)
    border = (row_last > row_first) & (room >= gap)
    # Column 0 vertex-type (gap 1), 1 edge-type (gap 0), 2 transient.
    kind = np.where(gap == 1, 0, np.where(gap == 0, 1, 2))
    tally = np.bincount(
        lazy_rows[border] * 3 + kind[border], minlength=rows * 3
    )
    return tally.reshape(rows, 3)
