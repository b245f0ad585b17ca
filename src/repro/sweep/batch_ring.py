"""Vectorized batch ring kernel: many rotor-router lanes per numpy op.

Sweeps spend their time stepping thousands of *independent* ring
configurations, so instead of vectorizing one configuration this
module stacks ``B`` of them as the ``(B, n)`` rows of one
:class:`LaneBlock` and advances all rows with one fixed sequence of
numpy operations per round.

The ring's degree-2 structure makes the round-robin rule branch-free.
Storing the pointer as a bit ``p`` (1 = clockwise, 0 = anticlockwise)
instead of a +/-1 direction:

* clockwise exits  ``fwd = (c + p) >> 1``  (ceil(c/2) when the pointer
  is clockwise, floor(c/2) otherwise),
* anticlockwise exits ``bwd = c - fwd``,
* arrivals ``a(v) = fwd(v-1) + bwd(v+1)``,
* pointer flip iff ``c`` is odd: ``p ^= c & 1`` — fused here as
  ``p = (p ^ c) & 1`` since ``p`` is a bit.

Counts are bounded by the lane's agent count ``k``, so the dtype is
chosen per batch (int8 up to k=126, int16 up to k=32766, else int64)
— the dominant cost is memory traffic and halving the element width
roughly doubles the throughput.  All buffers are preallocated and the
arrival computation writes straight into the double buffer, so a round
is allocation-free; it steps whole zero-padded rows, and the arrivals
are one add over the rows read flat, with the two columns whose
neighbours wrap written again.

Every driver validates its input with :func:`lane_block` and steps the
block it returns with that one round.  Drivers drop the rows they are
done with by :meth:`LaneBlock.take`, or keep the rows still running a
sorted prefix:

* **cover** — :class:`BatchRingKernel`'s ``cover_rounds[b]`` records
  the round lane ``b`` first had every node visited (visits = agent
  arrivals, initial occupancy counts at round 0).  One rule tracks it,
  in ``step``, ``run`` and ``run_until_covered`` alike: each round
  writes ``seen | counts`` (one element-wise op) into the next slot of
  a window's history, and the rows are reconciled once per
  ``BatchRingKernel._WINDOW`` rounds — per-lane reductions are ~10x
  the cost of the element-wise round itself, so they must stay off the
  per-round path.  A lane that covered inside a window reads its exact
  cover round off the first history slot its row is full in.
  ``run_until_covered`` drops covered lanes at :data:`COMPACT_RATIO`;
* **border census** — Figure 1's census
  (:func:`repro.analysis.domains_stats.border_type_census`) steps a
  block and reads its counts, pointer bits and clockwise exits after
  every round;
* **stabilization** — :func:`batch_limit_cycles` runs Brent's
  cycle-finding entirely in array ops, in slabs of
  ``BatchRingKernel._WINDOW`` rounds: each round's configurations are
  packed into uint64 words, one matmul gives a slab its random-weight
  fingerprints, one broadcast compares them with every snapshot due,
  and the rare fingerprint hits are confirmed byte-exactly before a
  lane is resolved, so the result is still the true minimal period.
  Besides Brent's doubling snapshots, phase 1 splits every doubling
  window with evenly spaced ones, which catch a lane soon after its
  cycle starts.  Resolved lanes are compacted out of the working
  arrays (once the live fraction drops to :data:`COMPACT_RATIO`),
  making stepping *and* bookkeeping scale with unresolved lanes.
  Phase 2 starts each lane from a snapshot phase 1 proved to lie
  before its cycle, and hands on each lane's configuration at round
  mu, its cycle start;
* **return times** — :func:`batch_return_gaps` sorts lanes by period
  so the active set is always a contiguous array prefix, scans one
  limit-cycle period per lane from its cycle start on that shrinking
  prefix, and records the worst per-node visit gap including the
  wrap-around gap, exactly as :func:`repro.core.limit.return_time_exact`.

Single-agent covers need no block: :func:`single_agent_covers` reads
them off the pointers in closed form, in n - 2 lockstep array steps
whatever the cover round.  Every other O(k) trajectory runs on one
:class:`Trajectory` in plain Python, ring or path, crossing every
stretch in which all agents walk straight in one jump: sparse covers
(fewer agents than nodes, :func:`sparse_ring_covers`), the §2.3 traces
and the Theorem 1 path deployments.

The dense block runs one cadence: cover windows and Brent's slabs are
``BatchRingKernel._WINDOW`` (8) rounds wide, and phase 1 keeps that
many snapshots in each doubling window.  None of it is a parameter.

Step-for-step equivalence with the reference engines is checked by the
rows of the differential harness, ``tests/differential.py``: the
``lane-block``, ``kernel-*`` and ``compaction`` rows for the block and
the cover kernel, the ``limit*`` and ``lock-in`` rows for Brent's
search and the gap scan, and the ``single-agent``, ``sparse*`` and
``trajectory/*`` rows for the O(k) steppers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.obs.telemetry import active as _telemetry
from repro.util.rng import derive_seed

_DTYPE_LIMITS = ((np.int8, 126), (np.int16, 32766), (np.int64, 2**62))

#: Lane-compaction threshold of the cover driver and the limit-cycle
#: pipeline: working arrays are rebuilt to hold only the lanes still
#: running once their live fraction drops to this ratio.  1.0 compacts
#: after every resolution (cheapest rounds, most rebuilds), 0.0 never
#: compacts; 0.5 bounds dead-row overhead at 2x while keeping rebuilds
#: logarithmic in the lane count.  Results are identical at every
#: ratio; ``run_until_covered`` and both Brent phases read it at call
#: time, so tests can patch it.
COMPACT_RATIO = 0.5

_ONE = np.uint64(1)


def _counts_dtype(max_agents: int) -> type:
    """Smallest signed dtype holding ``c + 1`` for every count ``c``."""
    for dtype, limit in _DTYPE_LIMITS:
        if max_agents <= limit:
            return dtype
    raise ValueError(f"batch kernel supports at most 2^62 agents, got {max_agents}")


def _padded_columns(n: int, dtype: np.dtype) -> int:
    """Columns per row so a row is a whole number of uint64 words."""
    per_word = max(1, 8 // dtype.itemsize)
    return -(-n // per_word) * per_word


class LaneBlock:
    """``(A, n)`` configuration rows stepped whole or as prefix slices.

    Drivers keep their working lanes contiguous: lanes they are done
    with are either compacted out (:meth:`take`) or sorted to the back
    so the active set is always ``rows[:a]`` — both ways a round costs
    element-wise ops on exactly the rows that still matter, with no
    masks, gathers or full-batch temporaries.

    Rows live in zero-padded buffers whose byte length is a multiple
    of 8, and a round steps whole padded rows: the element-wise ops run
    over contiguous memory, and the arrivals are one add over the
    buffers read flat, row after row.  The buffers are exposed as
    ``(A, n)`` views (``ptr``/``cnt``/``fwd``) and as uint64 *word*
    views (``ptr_words``/``cnt_words``), which :meth:`pack` folds into
    the words of ``z = 2·counts + ptr`` for Brent's search to
    fingerprint and compare — comparing packed words touches 1/8 of
    the bytes of an element-wise row comparison.  Every round leaves
    the padding zero, so word equality is exactly configuration
    equality.  ``fwd`` holds the clockwise exits of the round last
    stepped: an agent that arrived at ``v`` alone travelled clockwise
    iff ``fwd(v - 1) == 1``.

    :meth:`step_all` runs on views of the whole buffers made once per
    block; only :meth:`step_prefix` slices a prefix each round.
    """

    __slots__ = (
        "n", "ptr", "cnt", "fwd", "ptr_words", "cnt_words",
        "_ptr_buf", "_cnt_buf", "_nxt_buf", "_fwd_buf", "_bwd_buf",
        "_nxt", "_nxt_words", "_cnt_flat", "_nxt_flat", "_fwd_flat",
        "_bwd_flat", "_exits", "_arrivals", "_cnt_arrivals",
    )

    def __init__(self, ptr: np.ndarray, cnt: np.ndarray) -> None:
        rows, n = cnt.shape
        shape = (rows, _padded_columns(n, cnt.dtype))
        self.n = n
        self._ptr_buf = np.zeros(shape, dtype=cnt.dtype)
        self._cnt_buf = np.zeros(shape, dtype=cnt.dtype)
        self._nxt_buf = np.zeros(shape, dtype=cnt.dtype)
        self._fwd_buf = np.empty(shape, dtype=cnt.dtype)
        self._bwd_buf = np.empty(shape, dtype=cnt.dtype)
        self._ptr_buf[:, :n] = ptr
        self._cnt_buf[:, :n] = cnt
        # The pointer and exit buffers never change roles, so their
        # views are permanent; the count and next buffers swap roles
        # every committed round, and their views swap with them.  The
        # flat views must share memory with their buffers: ``copy=False``
        # raises rather than hand back a copy that would drop writes.
        self.ptr = self._ptr_buf[:, :n]
        self.ptr_words = self._ptr_buf.view(np.uint64)
        self.fwd = self._fwd_buf[:, :n]
        self._fwd_flat = np.reshape(self._fwd_buf, -1, copy=False)
        self._bwd_flat = np.reshape(self._bwd_buf, -1, copy=False)
        self.cnt = self._cnt_buf[:, :n]
        self.cnt_words = self._cnt_buf.view(np.uint64)
        self._cnt_flat = np.reshape(self._cnt_buf, -1, copy=False)
        self._nxt = self._nxt_buf[:, :n]
        self._nxt_words = self._nxt_buf.view(np.uint64)
        self._nxt_flat = np.reshape(self._nxt_buf, -1, copy=False)
        # Whole-block views of the arrival sums (see ``_arith``): the
        # exits read, and the cells of each count buffer written.
        f, b = self._fwd_buf, self._bwd_buf
        self._exits = (
            self._fwd_flat[:-2], self._bwd_flat[2:],
            f[:, n - 1], b[:, 1], f[:, n - 2], b[:, 0],
        )
        self._arrivals = self._arrival_views(self._nxt_buf, self._nxt_flat)
        self._cnt_arrivals = self._arrival_views(
            self._cnt_buf, self._cnt_flat
        )

    def _arrival_views(self, buf: np.ndarray, flat: np.ndarray) -> tuple:
        n = self.n
        pad = buf[:, n:] if buf.shape[1] > n else None
        return flat[1:-1], buf[:, 0], buf[:, n - 1], pad

    @property
    def rows(self) -> int:
        return self._cnt_buf.shape[0]

    @staticmethod
    def _rotor(c, p, f, b) -> None:
        """Clockwise exits into ``f``, anticlockwise ones into ``b``,
        pointers flipped in place."""
        np.add(c, p, out=f)
        np.right_shift(f, 1, out=f)
        np.subtract(c, f, out=b)
        np.bitwise_xor(p, c, out=p)
        np.bitwise_and(p, 1, out=p)

    def _arith(self, a: int) -> None:
        """Rotor arithmetic on rows ``[:a]``: exits, pointer flips, and
        arrivals into the next counts."""
        n = self.n
        c, p = self._cnt_buf[:a], self._ptr_buf[:a]
        f, b, x = self._fwd_buf[:a], self._bwd_buf[:a], self._nxt_buf[:a]
        self._rotor(c, p, f, b)
        # arrivals(v) = fwd(v-1) + bwd(v+1), over the rows read flat;
        # that is exact for every v but the two whose neighbours wrap
        # round the ring, and pollutes the padding, so those columns
        # are written again.
        end = a * f.shape[1]
        np.add(
            self._fwd_flat[:end - 2], self._bwd_flat[2:end],
            out=self._nxt_flat[1:end - 1],
        )
        np.add(f[:, n - 1], b[:, 1], out=x[:, 0])
        np.add(f[:, n - 2], b[:, 0], out=x[:, n - 1])
        if x.shape[1] > n:
            x[:, n:] = 0

    def _commit_swap(self) -> None:
        self._cnt_buf, self._nxt_buf = self._nxt_buf, self._cnt_buf
        self.cnt, self._nxt = self._nxt, self.cnt
        self.cnt_words, self._nxt_words = self._nxt_words, self.cnt_words
        self._cnt_flat, self._nxt_flat = self._nxt_flat, self._cnt_flat
        self._arrivals, self._cnt_arrivals = (
            self._cnt_arrivals, self._arrivals,
        )

    def step_all(self) -> None:
        """One round on every row, as ``_arith`` on the whole block's
        views — commits by buffer swap (no copy)."""
        self._rotor(
            self._cnt_buf, self._ptr_buf, self._fwd_buf, self._bwd_buf
        )
        fwd_head, bwd_tail, fwd_last, bwd_second, fwd_penult, bwd_first = (
            self._exits
        )
        inner, first, last, pad = self._arrivals
        np.add(fwd_head, bwd_tail, out=inner)
        np.add(fwd_last, bwd_second, out=first)
        np.add(fwd_penult, bwd_first, out=last)
        if pad is not None:
            pad.fill(0)
        self._commit_swap()

    def step_prefix(self, a: int) -> None:
        """One rotor-router round on rows ``[:a]``; the rest hold still.

        Commits whichever way copies less: small prefixes copy the new
        counts back, large prefixes swap buffers and restore the
        untouched tail.
        """
        self._arith(a)
        if 2 * a >= self.rows:
            self._nxt_buf[a:] = self._cnt_buf[a:]
            self._commit_swap()
        else:
            self._cnt_buf[:a] = self._nxt_buf[:a]

    def pack(self, out: np.ndarray | None = None) -> np.ndarray:
        """The rows as ``z = 2·counts + ptr`` words, ``(A, words)`` uint64.

        Counts stay below their dtype's sign bit, so the wordwise shift
        never carries across packed elements and OR-ing the pointer bit
        is exact addition: equal words are equal configurations.
        """
        out = np.left_shift(self.cnt_words, _ONE, out=out)
        out |= self.ptr_words
        return out

    def take(self, rows: np.ndarray | slice) -> "LaneBlock":
        """A new block holding only ``rows`` (fresh compact buffers)."""
        return LaneBlock(self.ptr[rows], self.cnt[rows])


def lane_block(n: int, pointers: np.ndarray, counts: np.ndarray) -> LaneBlock:
    """Validate ``(B, n)`` lane arrays and load them into one block.

    ``pointers`` holds a direction per node, +1 (clockwise) or -1, one
    row per lane; ``counts`` the initial agents per node, at least one
    per lane.  Counts take the smallest dtype the fullest lane fits.
    """
    if n < 3:
        raise ValueError(f"ring requires n >= 3, got {n}")
    directions = np.asarray(pointers)
    initial = np.asarray(counts)
    if directions.ndim != 2 or directions.shape[1] != n:
        raise ValueError(
            f"pointers must have shape (B, {n}), got {directions.shape}"
        )
    if initial.shape != directions.shape:
        raise ValueError(
            f"counts shape {initial.shape} does not match pointers "
            f"shape {directions.shape}"
        )
    if not np.all((directions == 1) | (directions == -1)):
        raise ValueError("pointers must be +1 or -1")
    if np.any(initial < 0):
        raise ValueError("counts must be non-negative")
    per_lane = initial.sum(axis=1)
    if np.any(per_lane < 1):
        raise ValueError("every lane requires at least one agent")
    dtype = _counts_dtype(int(per_lane.max()))
    # Pointer bit: 1 = clockwise (+1), 0 = anticlockwise (-1).
    return LaneBlock((directions == 1).astype(dtype), initial.astype(dtype))


class BatchRingKernel:
    """``B`` independent k-agent rotor-routers on n-rings, stepped together.

    Parameters
    ----------
    n:
        Ring size shared by every lane (>= 3).
    pointers:
        ``(B, n)`` array-like of initial directions, +1 (clockwise) or
        -1 per node, one row per lane.
    counts:
        ``(B, n)`` array-like of initial agent counts per node; every
        lane needs at least one agent.

    The lanes are the rows of one :class:`LaneBlock`.  ``step`` and
    ``run`` advance every lane the kernel holds; ``run_until_covered``
    also drops covered lanes, whose state accessors then raise (their
    ``cover_rounds`` stay).
    """

    #: Rounds per reconciliation window: the per-lane reduction runs
    #: once per window, and every round of it keeps one history slot of
    #: the visited rows, so the width trades reductions against the
    #: history's memory (8 rounds are 1 MiB for an int8 chunk of the
    #: executor's ``CHUNK_ELEMENTS`` lane-nodes).  Read when a kernel
    #: is built.
    _WINDOW = 8

    def __init__(
        self, n: int, pointers: np.ndarray, counts: np.ndarray
    ) -> None:
        self._block = lane_block(n, pointers, counts)
        self.n = n
        self.num_lanes = self._block.rows
        self.round = 0
        # The lane of each block row, ascending; rows drop out as
        # ``run_until_covered`` compacts covered lanes away.
        self._lanes = np.arange(self.num_lanes)
        # Visited accumulator: ``seen | counts`` each round keeps a
        # cell nonzero iff its node was ever occupied — one
        # element-wise op per round, no comparison or temporary.
        self._seen = self._block.cnt.copy()
        # That op writes each round of a window into the next slot, so
        # a lane's cover round is the first slot its row is full in.
        # The rows still held use the front of each slot.
        self._history = np.empty(
            (self._WINDOW,) + self._seen.shape, dtype=self._seen.dtype
        )
        self.cover_rounds = np.full(self.num_lanes, -1, dtype=np.int64)
        self.cover_rounds[self._seen.all(axis=1)] = 0
        self._epochs = 0
        self._lane_rounds = 0

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every held lane one synchronous round.

        Returns a boolean array marking the nodes that received at
        least one agent this round, one row per held lane.  ``round``
        counts rounds.
        """
        self._advance(1)
        return self._block.cnt != 0

    def _advance(self, width: int) -> np.ndarray:
        """Advance the held lanes ``width`` rounds, at most one window,
        ``cover_rounds`` exact; returns which held rows are still
        uncovered.

        Per round only ``seen | counts`` runs, into the next history
        slot; the rows are reconciled once, at the end: the last slot
        becomes ``seen``, and each lane that covered inside the window
        reads its cover round off the first slot its row is full in.
        """
        block, seen, lanes = self._block, self._seen, self._lanes
        history = self._history[:width, :block.rows]
        visited = seen
        for slot in history:
            block.step_all()
            np.bitwise_or(visited, block.cnt, out=slot)
            visited = slot
        np.copyto(seen, visited)
        open_rows = self.cover_rounds[lanes] < 0
        full = seen.all(axis=1)
        just = np.flatnonzero(open_rows & full)
        if just.size:
            first = history[:, just].all(axis=2).argmax(axis=0)
            self.cover_rounds[lanes[just]] = self.round + 1 + first
        self._epochs += 1
        self._lane_rounds += block.rows * width
        self.round += width
        return open_rows & ~full

    def _compact(self, live: np.ndarray) -> None:
        """Drop the rows not ``live`` once the live share falls to
        :data:`COMPACT_RATIO`, as the Brent phases do."""
        alive = int(np.count_nonzero(live))
        if 0 < alive < live.size and alive <= COMPACT_RATIO * live.size:
            keep = np.flatnonzero(live)
            self._block = self._block.take(keep)
            self._seen = self._seen[keep]
            self._lanes = self._lanes[keep]

    def run(self, rounds: int) -> None:
        """Advance every held lane ``rounds`` rounds, ``cover_rounds``
        exact."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        while rounds > 0:
            width = min(len(self._history), rounds)
            self._advance(width)
            rounds -= width

    def run_until_covered(
        self, max_rounds: int, strict: bool = True
    ) -> np.ndarray:
        """Step until every lane has covered its ring; per-lane cover rounds.

        Covered lanes are dropped from the block once the live share of
        its rows falls to :data:`COMPACT_RATIO`, as in both Brent
        phases, so the rounds after cost only the lanes still running.
        With ``strict``, lanes still uncovered after ``max_rounds``
        raise ``RuntimeError`` (mirroring the reference engines);
        otherwise they report -1, letting sweeps record truncation
        instead of dying mid-grid.
        """
        window = len(self._history)
        while (self.cover_rounds < 0).any() and self.round < max_rounds:
            self._compact(self._advance(min(window, max_rounds - self.round)))
        covered = int(np.count_nonzero(self.cover_rounds >= 0))
        if strict and covered < self.num_lanes:
            raise RuntimeError(
                f"{self.num_lanes - covered} of {self.num_lanes} lanes not "
                f"covered within {max_rounds} rounds"
            )
        tel = _telemetry()
        if tel is not None:
            tel.count_many({
                "ring.invocations": 1,
                "ring.lanes": self.num_lanes,
                "ring.rounds": self.round,
                # Rows actually stepped.
                "ring.lane_rounds": self._lane_rounds,
                "ring.epochs": self._epochs,
                "ring.lanes_covered": covered,
                "ring.lanes_truncated": self.num_lanes - covered,
            })
        return self.cover_rounds.copy()

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def _row(self, lane: int) -> int:
        """The block row of ``lane``, which must still be held."""
        row = int(np.searchsorted(self._lanes, lane))
        if row == self._lanes.size or self._lanes[row] != lane:
            raise ValueError(
                f"lane {lane} is not held: out of range, or dropped by "
                "run_until_covered after it covered"
            )
        return row

    def counts_lane(self, lane: int) -> np.ndarray:
        """Agent counts of one lane as int64 (copy)."""
        return self._block.cnt[self._row(lane)].astype(np.int64)

    def directions_lane(self, lane: int) -> list[int]:
        """Pointer directions (+1/-1) of one lane."""
        return [1 if bit else -1 for bit in self._block.ptr[self._row(lane)]]

    def positions(self, lane: int) -> list[int]:
        """Sorted agent locations of one lane, with multiplicity."""
        return np.repeat(
            np.arange(self.n), self._block.cnt[self._row(lane)]
        ).tolist()

    def unvisited_lane(self, lane: int) -> int:
        return int(self.n - np.count_nonzero(self._seen[self._row(lane)]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchRingKernel(n={self.n}, lanes={self.num_lanes}, "
            f"round={self.round})"
        )


def lanes_from_configs(
    n: int, configurations: list[tuple[list[int], list[int]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack ``(directions, agents)`` pairs into kernel input arrays.

    Every pair describes one lane: a length-``n`` +/-1 direction list
    and agent starting nodes with multiplicity (the same arguments the
    reference :class:`repro.core.ring.RingRotorRouter` takes).
    """
    if not configurations:
        raise ValueError("at least one configuration is required")
    num_lanes = len(configurations)
    pointers = np.empty((num_lanes, n), dtype=np.int8)
    counts = np.zeros((num_lanes, n), dtype=np.int64)
    for b, (directions, agents) in enumerate(configurations):
        if len(directions) != n:
            raise ValueError(
                f"lane {b}: pointers have length {len(directions)}, "
                f"ring has {n} nodes"
            )
        if any(d not in (1, -1) for d in directions):
            raise ValueError(f"lane {b}: pointers must be +1 or -1")
        pointers[b] = directions
        if not agents:
            raise ValueError(f"lane {b}: at least one agent is required")
        for a in agents:
            if not 0 <= a < n:
                raise ValueError(f"lane {b}: agent position {a} out of range")
            counts[b, a] += 1
    return pointers, counts


def single_agent_covers(
    n: int, pointers: np.ndarray, counts: np.ndarray, max_rounds: int
) -> np.ndarray:
    """Cover rounds of single-agent lanes in closed form: no round steps.

    Takes the ``(B, n)`` lane arrays :func:`lane_block` validates, one
    agent per lane, and returns each lane's cover round, or -1 past
    ``max_rounds`` (a cover equal to the budget counts, as in
    :meth:`BatchRingKernel.run_until_covered`).

    Until it covers, a lone agent's visited nodes form an arc around its
    start, and it crosses that arc straight (§2.2: a lone agent turns
    only at its domain's border, here the arc's ends).  Each arc node's
    pointer was flipped at its last departure, and that departure was
    toward the side the agent now arrives from, so the pointer sends it
    on.  The walk is therefore fixed by the pointers the nodes hold
    before their first visits.  The first move follows the start's
    pointer and reaches a second node.  Each of the next n - 2 steps
    adds one frontier node, decided by the pointer of the node just
    reached (the arc's end the agent stands on):

    * pointing outward, it moves on to the next fresh node: 1 round;
    * pointing inward, it crosses the arc of l + r + 1 nodes (l and r
      of them either side of the start) and steps past the arc's other
      end: l + r + 1 rounds.

    Every lane takes exactly n - 2 steps, and at step i the arc holds
    i + 2 nodes in every lane, so all lanes advance in lockstep.
    """
    block = lane_block(n, pointers, counts)
    if np.any(block.cnt.sum(axis=1) != 1):
        raise ValueError("every lane must hold exactly one agent")
    lanes = np.arange(block.rows)
    start = block.cnt.argmax(axis=1)
    clockwise = block.ptr.astype(bool)
    # ``heading``: the agent's last move was clockwise; ``lo``/``hi``:
    # arc nodes anticlockwise/clockwise of the start.
    heading = clockwise[lanes, start]
    hi = heading.astype(np.int64)
    lo = 1 - hi
    rounds = np.ones(block.rows, dtype=np.int64)
    for arc in range(2, n):
        at = np.where(heading, start + hi, start - lo) % n
        onward = clockwise[lanes, at] == heading
        rounds += np.where(onward, 1, arc)
        heading = heading == onward
        hi += heading
        lo += ~heading
    covers = np.where(rounds <= max_rounds, rounds, -1)
    tel = _telemetry()
    if tel is not None:
        covered = int(np.count_nonzero(covers >= 0))
        tel.count_many({
            "single.invocations": 1,
            "single.lanes": block.rows,
            "single.lanes_covered": covered,
            "single.lanes_truncated": block.rows - covered,
        })
    return covers


#: Shortest jump a trajectory takes, in rounds: a shorter one saves
#: less than its attempt and its slice writes cost, so the trajectory
#: steps those rounds plainly.  Scheduling only: both give the same
#: states.
_SHORTEST_JUMP = 8

#: Longest wait, in plain rounds, between jump attempts of a
#: trajectory: each failed attempt doubles the wait up to this cap, and
#: each jump resets it.
_MAX_BACKOFF = 32


def sparse_ring_covers(
    n: int, pointers: np.ndarray, counts: np.ndarray, max_rounds: int
) -> np.ndarray:
    """Cover rounds of sparse lanes, stepped in exact straight-run jumps.

    Takes the ``(B, n)`` lane arrays :func:`lane_block` validates and
    returns each lane's cover round, or -1 past ``max_rounds`` (a cover
    equal to the budget counts), as :func:`single_agent_covers` does.
    Each lane runs on its own :class:`Trajectory` with a cover stop:
    O(k) a round, and one jump across every stretch in which all agents
    walk straight.
    """
    covers, rounds, jumps, jump_rounds = [], [], 0, 0
    for ring in ring_trajectories(n, pointers, counts):
        if ring.unvisited:
            ring.run(max_rounds, stop=0)
        covers.append(-1 if ring.unvisited else ring.round)
        rounds.append(ring.round)
        jumps += ring.jumps
        jump_rounds += ring.jump_rounds
    tel = _telemetry()
    if tel is not None:
        covered = sum(cover >= 0 for cover in covers)
        tel.count_many({
            "sparse.invocations": 1,
            "sparse.lanes": len(covers),
            "sparse.rounds": max(rounds),
            "sparse.lane_rounds": sum(rounds),
            "sparse.jumps": jumps,
            "sparse.jump_rounds": jump_rounds,
            "sparse.lanes_covered": covered,
            "sparse.lanes_truncated": len(covers) - covered,
        })
    return np.array(covers, dtype=np.int64)


def ring_trajectories(
    n: int, pointers: np.ndarray, counts: np.ndarray, propagation: bool = False
) -> Iterator["Trajectory"]:
    """Yield one ring :class:`Trajectory` per lane of the ``(B, n)``
    arrays :func:`lane_block` validates, each built when it is asked
    for."""
    block = lane_block(n, pointers, counts)
    for bits, row in zip(block.ptr.astype(np.uint8), block.cnt):
        nodes = np.flatnonzero(row)
        occupied = dict(zip(nodes.tolist(), row[nodes].tolist()))
        yield Trajectory(n, bytearray(bits), occupied, False, propagation)


class Trajectory:
    """One rotor-router trajectory on the n-ring or the n-node path.

    The one O(k) stepper: sparse ring covers, the §2.3 ring traces, the
    Lemma 12 runs, the Lemma 13 path profile and the Theorem 1
    deployments all run on it.  ``bits`` holds the pointers
    (1 = clockwise, toward ``v + 1``) and ``occupied`` each occupied
    node's agent count.  A plain round costs O(k): ⌈c/2⌉ agents leave
    along the pointer, ⌊c/2⌋ the other way, and the pointer flips iff c
    is odd.  Whenever every agent is alone, :meth:`run` crosses the
    rounds :func:`_jump_length` allows in one jump of slice writes
    (DESIGN.md, "One ring and path stepper").

    On a path, node 0 sends every agent right and node n - 1 every agent
    left, and neither flips: their bits read 1 and 0 whenever a method
    returns.  With ``propagation`` the trajectory flags each node whose
    most recent visit was a PROPAGATION (the only visit kind a domain
    snapshot reads).  :func:`ring_trajectories` builds ring
    trajectories from validated lane arrays.
    """

    def __init__(
        self,
        n: int,
        bits: bytearray,
        occupied: dict[int, int],
        path: bool = False,
        propagation: bool = False,
    ) -> None:
        self.n, self.path, self.bits, self.occupied = n, path, bits, occupied
        self.k = sum(occupied.values())
        self.visited = bytearray(n)
        for v in occupied:
            self.visited[v] = 1
        self.unvisited = n - len(occupied)
        self.cover_round: int | None = None if self.unvisited else 0
        self.propagation = bytearray(n) if propagation else None
        self.round = self.jumps = self.jump_rounds = 0
        self._backoff = self._retry = 0
        # Each node's anticlockwise and clockwise neighbour (a path's
        # endpoints hold their one neighbour in both slots).
        self._neighbours = (list(range(-1, n - 1)), list(range(1, n + 1)))
        self._neighbours[0][0] = 1 if path else n - 1
        self._neighbours[1][n - 1] = n - 2 if path else 0
        if path:
            bits[0], bits[n - 1] = 1, 0
        self._zeros, self._ones = bytes(n), b"\x01" * n

    def run(
        self, rounds: int, stop: int = -1, maxima: list[int] | None = None
    ) -> None:
        """Step ``rounds`` rounds, or until at most ``stop`` nodes are
        unvisited, checked after each round (``stop=0``: the cover).

        A jump ends where it reaches the stop, and a cover inside one
        is recorded in ``cover_round``.  ``maxima``, on a path, holds
        each rank's largest position, ranks from the largest position
        down; every round raises it.
        """
        n, path, bits, visited = self.n, self.path, self.bits, self.visited
        left, right = self._neighbours
        zeros, ones, k = self._zeros, self._ones, self.k
        observe = self.propagation is not None or maxima is not None
        occupied, unvisited, t = self.occupied, self.unvisited, self.round
        end = t + rounds if unvisited > stop else min(t + rounds, t + 1)
        floor = max(stop, 0)
        backoff, retry = self._backoff, self._retry
        jumps, jump_rounds = self.jumps, self.jump_rounds
        while t < end:
            if len(occupied) == k and t >= retry:
                if path:
                    bits[0], bits[-1] = 1, 0
                agents = sorted(occupied)
                delta = _jump_length(n, bits, agents, end - t, path)
                if delta >= _SHORTEST_JUMP:
                    # The runs touch disjoint nodes: reverse the nodes
                    # each departs, and count the unvisited ones it
                    # reaches (marked below).
                    last = False
                    while True:
                        fresh = 0
                        moved = []
                        explorers = []
                        for x in agents:
                            if bits[x]:
                                lo = x + 1
                                if lo + delta <= n:
                                    bits[x:lo + delta - 1] = zeros[:delta]
                                    reached = visited.count(0, lo, lo + delta)
                                else:
                                    _fill(bits, x, delta, zeros, n)
                                    reached = _unvisited(visited, lo, delta, n)
                                moved.append((x + delta) % n)
                            else:
                                lo = x - delta
                                if lo >= 0:
                                    bits[lo + 1:x + 1] = ones[:delta]
                                    reached = visited.count(0, lo, x)
                                else:
                                    _fill(bits, lo + 1, delta, ones, n)
                                    reached = _unvisited(visited, lo, delta, n)
                                moved.append(lo % n)
                            if reached:
                                fresh += reached
                                explorers.append(lo)
                        if last or not fresh or fresh < unvisited - floor:
                            break
                        delta = self._last_rounds(
                            agents, delta, t, unvisited, stop
                        )
                        last = True
                    for lo in explorers:
                        _fill(visited, lo, delta, ones, n)
                    if observe:
                        self._observe_jump(agents, moved, delta, maxima)
                    occupied = dict.fromkeys(moved, 1)
                    unvisited -= fresh
                    t += delta
                    jumps += 1
                    jump_rounds += delta
                    backoff = 0
                    retry = t
                    if unvisited <= stop:
                        break
                    continue
                backoff = min(2 * backoff + 1, _MAX_BACKOFF)
                retry = t + backoff
                continue
            t += 1
            arrivals: dict[int, int] = {}
            for v, c in occupied.items():
                if c == 1:
                    # A lone agent leaves along the pointer, which flips.
                    if bits[v]:
                        bits[v] = 0
                        u = right[v]
                    else:
                        bits[v] = 1
                        u = left[v]
                    if u in arrivals:
                        arrivals[u] += 1
                        continue
                    arrivals[u] = 1
                    if visited[u]:
                        continue
                    visited[u] = 1
                    unvisited -= 1
                else:
                    half = c >> 1
                    if bits[v]:
                        u, back = right[v], left[v]
                    else:
                        u, back = left[v], right[v]
                    if c & 1:
                        bits[v] ^= 1
                    arrivals[u] = arrivals.get(u, 0) + c - half
                    arrivals[back] = arrivals.get(back, 0) + half
                    first = not visited[back]
                    if first:
                        visited[back] = 1
                        unvisited -= 1
                    if not visited[u]:
                        visited[u] = 1
                        unvisited -= 1
                    elif not first:
                        continue
                # A node was first reached this round.
                if unvisited <= stop:
                    end = t
                if not unvisited:
                    self.cover_round = t
            if observe:
                self._observe_round(occupied, arrivals, maxima)
            occupied = arrivals
        self.occupied, self.unvisited, self.round = occupied, unvisited, t
        self._backoff, self._retry = backoff, retry
        self.jumps, self.jump_rounds = jumps, jump_rounds
        if path:
            bits[0], bits[-1] = 1, 0

    def walk(self, start: int, target: int, budget: int) -> int:
        """Release one agent at ``start`` on a path, every other agent
        holding, until it stands on ``target`` having just moved
        rightward; returns the rounds used, or -1 past ``budget`` (the
        trajectory is then left mid-walk).

        The agent walks straight to its next back-pointing node, or to
        ``target`` when it lies ahead rightward: one jump per leg.
        """
        if start == target:
            return 0
        bits, visited, ones = self.bits, self.visited, self._ones
        x, used, arrives = start, 0, False
        while not arrives and used < budget:
            if bits[x]:
                turn = bits.find(0, x + 1)
                arrives = x < target <= turn
                length = (target if arrives else turn) - x
                lo = x + 1
            else:
                length = x - bits.rfind(1, 0, x)
                lo = x - length
            fresh = visited.count(0, lo, lo + length)
            if fresh == self.unvisited > 0:
                self.cover_round = self.round + used + max(
                    abs(v - x)
                    for v in range(lo, lo + length)
                    if not visited[v]
                )
            self.unvisited -= fresh
            visited[lo:lo + length] = ones[:length]
            if lo > x:
                bits[x:x + length] = self._zeros[:length]
                x += length
            else:
                bits[lo + 1:x + 1] = ones[:length]
                x = lo
            bits[0], bits[-1] = 1, 0
            used += length
        if not arrives or used > budget:
            return -1
        self.occupied[start] -= 1
        if not self.occupied[start]:
            del self.occupied[start]
        self.occupied[x] = self.occupied.get(x, 0) + 1
        self.round += used
        return used

    def _last_rounds(
        self, agents: list[int], delta: int, t: int, unvisited: int, stop: int
    ) -> int:
        """Take back a jump of ``delta`` rounds that reaches the stop or
        the cover, and return the rounds to jump instead: the jump ends
        at the offset that leaves ``stop`` nodes unvisited, and a cover
        within it is recorded."""
        n, bits, visited = self.n, self.bits, self.visited
        for x in agents:  # x's departure flipped it: 1 = went anticlockwise
            if bits[x]:
                _fill(bits, x - delta + 1, delta, self._zeros, n)
            else:
                _fill(bits, x, delta, self._ones, n)
        offsets = sorted(
            abs(v - x)
            for x in agents
            for lo in (x + 1 if bits[x] else x - delta,)
            for v in range(lo, lo + delta)
            if not visited[v % n]
        )
        if unvisited > stop >= 0:
            delta = offsets[unvisited - stop - 1]
        if len(offsets) >= unvisited and offsets[unvisited - 1] <= delta:
            self.cover_round = t + offsets[unvisited - 1]
        return delta

    def _observe_jump(
        self,
        agents: list[int],
        moved: list[int],
        delta: int,
        maxima: list[int] | None,
    ) -> None:
        """Visit kinds and rank maxima across one jump.  Every node a run
        passes is a PROPAGATION visit, and the node it ends on iff its
        pointer, after the jump, leads on.  Agents keep their order, so
        a rank's maximum is where its run ends, or its first step left."""
        bits, prop = self.bits, self.propagation
        if prop is not None:
            for x, y in zip(agents, moved):
                onward = 1 - bits[x]  # x's departure flipped it
                _fill(prop, x + 1 if onward else y, delta, self._ones, self.n)
                prop[y] = bits[y] == onward
        if maxima is not None:
            ranked = zip(reversed(agents), reversed(moved))
            for rank, (x, y) in enumerate(ranked):
                maxima[rank] = max(maxima[rank], y if y > x else x - 1)

    def _observe_round(
        self,
        before: dict[int, int],
        arrivals: dict[int, int],
        maxima: list[int] | None,
    ) -> None:
        """Visit kinds and rank maxima after one plain round.  A lone
        arrival propagates iff it came from the neighbour its node's
        pointer now points away from: that neighbour sent agents both
        ways, or one, whose departure turned its pointer away."""
        neighbours, bits, prop = self._neighbours, self.bits, self.propagation
        if prop is not None:
            for u, c in arrivals.items():
                back = neighbours[1 - bits[u]][u]
                sent = before.get(back, 0) if c == 1 else 0
                prop[u] = sent > 1 or (
                    sent == 1 and neighbours[bits[back]][back] != u
                )
        if maxima is not None:
            rank = 0
            for v in sorted(arrivals, reverse=True):
                for _ in range(arrivals[v]):
                    maxima[rank] = max(maxima[rank], v)
                    rank += 1


def _jump_length(
    n: int, bits: bytearray, agents: list[int], limit: int, path: bool = False
) -> int:
    """Rounds lone agents at ``agents`` (sorted nodes) can run straight.

    The least of ``limit`` and, per agent, the bounds that keep every
    run straight and apart: the distance to the first node ahead whose
    pointer points back (the agent reaches it, then turns), half the
    gap less one to an approaching neighbour (their runs must not
    meet), and the gap to a neighbour it follows (it may reach the node
    the leader left, but not read the pointer the leader flipped
    there).  Within such a jump each agent reads only pointers no other
    agent writes, which is what makes the jump exact.  On a ``path``
    the first and last agents are no neighbours, and the pinned
    endpoints turn every run before the ends.  Stops early, returning a
    value below :data:`_SHORTEST_JUMP`, once the jump would be shorter.
    """
    delta = limit
    if path:
        before, rest = agents[0], agents[1:]
    else:
        # ``before`` is the nearest agent anticlockwise of x, a ring
        # back (a negative index) for the first; x itself when alone.
        before, rest = agents[-1] - n, agents
    for x in rest:
        gap = x - before
        if bits[before]:
            bound = gap if bits[x] else (gap - 1) >> 1
        elif not bits[x]:
            bound = gap
        else:
            bound = delta
        if bound < delta:
            delta = bound
            if delta < _SHORTEST_JUMP:
                return delta
        before = x
    for x in agents:
        if bits[x]:
            ahead = bits.find(0, x + 1, x + 1 + delta)
            if ahead >= 0:
                delta = ahead - x
            elif x + 1 + delta > n:
                ahead = bits.find(0, 0, x + 1 + delta - n)
                if ahead >= 0:
                    delta = ahead + n - x
        else:
            start = x - delta
            ahead = bits.rfind(1, start if start > 0 else 0, x)
            if ahead >= 0:
                delta = x - ahead
            elif start < 0:
                ahead = bits.rfind(1, start + n, n)
                if ahead >= 0:
                    delta = x + n - ahead
        if delta < _SHORTEST_JUMP:
            return delta
    return delta


def _fill(buf: bytearray, lo: int, length: int, run: bytes, n: int) -> None:
    """Write ``run[:length]`` over the ``length`` nodes from ``lo`` on."""
    lo %= n
    hi = lo + length
    if hi <= n:
        buf[lo:hi] = run[:length]
    else:
        buf[lo:] = run[:n - lo]
        buf[:hi - n] = run[:hi - n]


def _unvisited(visited: bytearray, lo: int, length: int, n: int) -> int:
    """How many of the ``length`` nodes from ``lo`` on are unvisited."""
    lo %= n
    hi = lo + length
    if hi <= n:
        return visited.count(0, lo, hi)
    return visited.count(0, lo, n) + visited.count(0, 0, hi - n)


# ----------------------------------------------------------------------
# per-lane limit-cycle detection (stabilization + return times)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchLimitCycles:
    """Per-lane stabilization results: preperiod mu, period lam, and
    the configuration at round mu, where the cycle starts.

    ``pointers`` (+1/-1 per node) and ``counts`` hold those cycle-start
    configurations as ``(B, n)`` rows, which :func:`batch_return_gaps`
    scans from.  Lanes whose cycle was not confirmed within the round
    budget (only possible with ``strict=False``) carry -1 in
    ``preperiods`` and ``periods``, and their input configuration.
    """

    preperiods: np.ndarray
    periods: np.ndarray
    pointers: np.ndarray
    counts: np.ndarray

    def take(self, lanes: np.ndarray) -> "BatchLimitCycles":
        """The results of ``lanes`` alone, such as the resolved ones."""
        return BatchLimitCycles(
            preperiods=self.preperiods[lanes],
            periods=self.periods[lanes],
            pointers=self.pointers[lanes],
            counts=self.counts[lanes],
        )


class _Fingerprinter:
    """Random-weight uint64 fingerprints of packed configuration rows.

    Both Brent phases keep configurations as the words of
    ``z = 2·counts + ptr`` (:meth:`LaneBlock.pack`), 8 packed count
    bytes per word at int8.  The fingerprint is the random-weight dot
    product over those words, modulo 2^64::

        fingerprint[b] = sum_j w[j]*z_words[b,j]    (mod 2^64)

    so one wrapping matmul fingerprints a whole slab of rounds, and
    "round == snapshot" is one broadcast equality.  Equal
    configurations always share a fingerprint; unequal ones collide
    only when the weighted word difference sums to 0 mod 2^64 (~2^-56
    for random differences under the seeded odd weights; structured
    worst cases are rarer than 2^-8), and every hit is confirmed
    byte-exactly on the stored words before a lane resolves —
    collisions cost time, never correctness.  The default weights
    derive from :func:`repro.util.rng.derive_seed` (stable across
    processes); tests inject degenerate ``(w_ptr, w_cnt)`` weights to
    force collisions, which hash the pointer and count words unpacked
    from ``z`` (``dtype`` is the counts' dtype).
    """

    def __init__(
        self,
        words: int,
        dtype: np.dtype,
        weights: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if weights is None:
            rng = np.random.default_rng(
                derive_seed(0, "limit-cycle-fingerprint", words, words)
            )
            # Odd weights are units mod 2^64: a single differing word
            # never collides, whatever its (power-of-two) byte offset.
            self._w_packed = rng.integers(
                0, 2**64, size=words, dtype=np.uint64
            ) | _ONE
            return
        self._w_packed = None
        self.w_ptr = np.ascontiguousarray(weights[0], dtype=np.uint64)
        self.w_cnt = np.ascontiguousarray(weights[1], dtype=np.uint64)
        if self.w_ptr.shape != (words,) or self.w_cnt.shape != (words,):
            raise ValueError(
                f"fingerprint weights must have shapes ({words},) and "
                f"({words},), got {self.w_ptr.shape} and {self.w_cnt.shape}"
            )
        # The low bit of every packed element, and the bits of its
        # count: each element's bits but the top one, shifted down.
        bits = 8 * np.dtype(dtype).itemsize
        lows = (2**64 - 1) // (2**bits - 1)
        self._ptr_mask = np.uint64(lows)
        self._cnt_mask = np.uint64(lows * (2 ** (bits - 1) - 1))

    def of(self, z: np.ndarray) -> np.ndarray:
        """uint64 fingerprints of packed rows ``z`` (``(..., words)``)."""
        if self._w_packed is not None:
            return z @ self._w_packed
        fp = (z & self._ptr_mask) @ self.w_ptr
        fp += ((z >> _ONE) & self._cnt_mask) @ self.w_cnt
        return fp


def _unpack(words: np.ndarray, n: int, dtype: type) -> tuple:
    """The ``(ptr, cnt)`` rows whose :meth:`LaneBlock.pack` is ``words``."""
    elements = words.view(f"u{np.dtype(dtype).itemsize}")[:, :n]
    return (elements & 1).astype(dtype), (elements >> 1).astype(dtype)


def _advance_by_schedule(block: LaneBlock, schedule: np.ndarray) -> None:
    """Step row ``i`` of ``block`` exactly ``schedule[i]`` rounds.

    ``schedule`` must be sorted descending: the rows still advancing
    in round ``t`` are then always the prefix ``[:a]``, and the total
    cost is ``Σ schedule[i]`` row-rounds instead of
    ``rows · max(schedule)``.
    """
    ascending = -schedule
    for t in range(int(schedule[0]) if schedule.size else 0):
        active = int(np.searchsorted(ascending, -t, side="left"))
        if active == 0:
            break
        block.step_prefix(active)


def _snapshot_schedule(
    max_rounds: int, per_window: int
) -> tuple[list[int], list[int]]:
    """Phase 1's snapshot rounds below ``max_rounds``, and for each the
    last round it is compared with.

    Brent's doubling snapshots sit at rounds ``2^j - 1``, each compared
    with the ``2^j`` rounds after it, its window.  ``per_window - 1``
    more split every window evenly (a narrower window has one at every
    round) and are compared up to the window's end.
    """
    rounds, ends = [], []
    first, window = 0, 1
    while first < max_rounds:
        count = min(per_window, window)
        for i in range(count):
            snap = first + i * (window // count)
            if snap < max_rounds:
                rounds.append(snap)
                ends.append(first + window)
        first += window
        window *= 2
    return rounds, ends


def _brent_rounds(preperiods: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Rounds doubling Brent's phase 1 steps to confirm each period:
    the first snapshot ``2^j - 1`` at or past the preperiod whose window
    ``2^j`` spans the period sees its configuration again ``period``
    rounds later."""
    reach = np.maximum(preperiods + 1, periods) - 1
    window = np.left_shift(1, np.frexp(reach)[1].astype(np.int64))
    return window - 1 + periods


def _brent_periods(
    block: LaneBlock,
    max_rounds: int,
    fingerprint: _Fingerprinter,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 1 of Brent's search: per-lane minimal periods (or -1).

    The block steps in slabs of ``BatchRingKernel._WINDOW`` rounds, each
    round's packed words written into the slab's history.  One matmul
    fingerprints the slab and one broadcast compares every row with
    every snapshot it is due against (:func:`_snapshot_schedule`: the
    doubling snapshots and the ones splitting their windows, shared by
    every lane); hits are confirmed byte-exactly on the stored words.
    A lane's first confirmed round ``t`` against a snapshot at ``s``
    gives its period ``t - s``: ``s`` lies on the cycle, and an earlier
    round of it would have matched first.  Every doubling snapshot is
    compared as in doubling Brent, so no lane is confirmed later than
    :func:`_brent_rounds` says.  Resolved lanes are compacted out once
    the live fraction drops to :data:`COMPACT_RATIO`.

    It also returns where phase 2 starts each lane, a round below its
    preperiod mu, with the packed rows there: the latest earlier
    snapshot whose comparisons spanned a whole period, which on the
    cycle would have matched first; or round 0 if there is none.
    Snapshots live in ``2 · _WINDOW`` slots, the current window's and
    the one before, where a lane caught by its window's first snapshot
    may start.
    """
    width = BatchRingKernel._WINDOW
    snap_rounds, snap_ends = _snapshot_schedule(max_rounds, width)
    num_lanes, words = block.cnt_words.shape
    periods = np.full(num_lanes, -1, dtype=np.int64)
    starts = np.zeros(num_lanes, dtype=np.int64)
    start_words = block.pack()
    slots = 2 * width
    snap = np.zeros((slots, num_lanes, words), dtype=np.uint64)
    snap_fp = np.zeros((slots, num_lanes), dtype=np.uint64)
    slot_round = np.full(slots, -1, dtype=np.int64)
    slot_end = np.full(slots, -1, dtype=np.int64)
    snap[0] = start_words
    snap_fp[0] = fingerprint.of(start_words)
    slot_round[0], slot_end[0] = 0, snap_ends[0]
    taken = 1
    history = np.empty((width, num_lanes, words), dtype=np.uint64)
    orig = np.arange(num_lanes)
    alive = np.ones(num_lanes, dtype=bool)
    num_alive = num_lanes
    steps = 0
    while num_alive and steps < max_rounds:
        slab = history[:min(width, max_rounds - steps)]
        for row in slab:
            block.step_all()
            block.pack(row)
        fps = fingerprint.of(slab)
        rounds = np.arange(steps + 1, steps + len(slab) + 1)[:, np.newaxis]
        steps += len(slab)
        if stats is not None:
            stats["epochs"] += 1
            stats["lane_rounds"] += block.rows * len(slab)
        # The slab's own snapshots join first: its later rows are due.
        while taken < len(snap_rounds) and snap_rounds[taken] <= steps:
            slot, row = taken % slots, snap_rounds[taken] - rounds[0, 0]
            snap[slot], snap_fp[slot] = slab[row], fps[row]
            slot_round[slot] = snap_rounds[taken]
            slot_end[slot] = snap_ends[taken]
            taken += 1
        due = (slot_round < rounds) & (rounds <= slot_end)
        hit = fps[:, np.newaxis, :] == snap_fp
        hit &= due[:, :, np.newaxis]
        hit &= alive
        if not hit.any():
            continue
        row, slot, lane = np.nonzero(hit)
        same = (slab[row, lane] == snap[slot, lane]).all(axis=1)
        if stats is not None:
            stats["fp_hits"] += int(row.size)
            stats["fp_confirmed"] += int(np.count_nonzero(same))
        if not same.any():
            continue
        # Hits come row-major: a lane's first is its earliest round.
        lane, first = np.unique(lane[same], return_index=True)
        row, slot = row[same][first], slot[same][first]
        matched = slot_round[slot]
        period = rounds[row, 0] - matched
        before = (slot_round < matched[:, np.newaxis]) & (
            slot_end - slot_round >= period[:, np.newaxis]
        )
        prior = np.where(before, slot_round, -1).argmax(axis=1)
        found = before.any(axis=1)
        lanes = orig[lane]
        periods[lanes] = period
        starts[lanes[found]] = slot_round[prior[found]]
        start_words[lanes[found]] = snap[prior[found], lane[found]]
        alive[lane] = False
        num_alive -= lane.size
        if 0 < num_alive <= COMPACT_RATIO * alive.size:
            keep = np.flatnonzero(alive)
            block = block.take(keep)
            snap, snap_fp = snap[:, keep], snap_fp[:, keep]
            history = np.empty((width, keep.size, words), dtype=np.uint64)
            orig = orig[keep]
            alive = np.ones(num_alive, dtype=bool)
            if stats is not None:
                stats["compactions"] += 1
    if stats is not None:
        stats["rounds"] += steps
    return periods, starts, start_words


def _brent_preperiods(
    start_words: np.ndarray,
    starts: np.ndarray,
    periods: np.ndarray,
    n: int,
    dtype: type,
    max_rounds: int,
    fingerprint: _Fingerprinter,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2: preperiods via synchronized tortoise/hare walkers.

    Each lane's tortoise starts where phase 1 placed it: round
    ``starts``, packed rows ``start_words``.  Hares and tortoises are
    the two halves of ONE block — rows ``[:A]`` hares, ``[A:]``
    tortoises — and the hares first run one full period ahead per lane
    (a sorted-prefix advance costing ``Σ period`` row-rounds).  Then
    the block steps in slabs of ``BatchRingKernel._WINDOW`` rounds:
    each round's packed words go into the slab's history, one matmul
    fingerprints it, and one equality compares the halves.  Hits are
    byte-confirmed on the stored words, and a lane's preperiod is its
    start plus its first confirmed round.  Returns the preperiods (-1
    for unresolved lanes) and each lane's packed rows at its preperiod,
    its cycle start (``start_words`` for unresolved lanes); resolved
    lanes step on harmlessly until compaction drops them.
    """
    preperiods = np.full(start_words.shape[0], -1, dtype=np.int64)
    cycle_words = start_words.copy()
    resolved = np.flatnonzero(periods > 0)
    if resolved.size == 0:
        return preperiods, cycle_words
    order = resolved[np.argsort(-periods[resolved], kind="stable")]
    pairs = order.size
    block = LaneBlock(
        *_unpack(np.concatenate([start_words[order]] * 2), n, dtype)
    )
    _advance_by_schedule(
        block, np.concatenate([periods[order], np.zeros(pairs, np.int64)])
    )
    width = BatchRingKernel._WINDOW
    words = start_words.shape[1]
    history = np.empty((width, 2 * pairs, words), dtype=np.uint64)
    orig = order
    alive = np.ones(pairs, dtype=bool)
    num_alive = pairs
    base = 0  # the round of the slab's first row
    if stats is not None:
        stats["lane_rounds"] += int(periods[resolved].sum())
    while True:
        for i, row in enumerate(history):
            if base + i:
                block.step_all()
            block.pack(row)
        if stats is not None:
            stats["epochs"] += 1
            stats["lane_rounds"] += block.rows * (width - (base == 0))
        fps = fingerprint.of(history)
        hit = fps[:, :pairs] == fps[:, pairs:]
        hit &= alive
        if hit.any():
            row, lane = np.nonzero(hit)
            hare, tortoise = history[row, lane], history[row, lane + pairs]
            same = (hare == tortoise).all(axis=1)
            if stats is not None:
                stats["fp_hits"] += int(row.size)
                stats["fp_confirmed"] += int(np.count_nonzero(same))
            if same.any():
                lane, first = np.unique(lane[same], return_index=True)
                row = row[same][first]
                lanes = orig[lane]
                preperiods[lanes] = starts[lanes] + base + row
                cycle_words[lanes] = history[row, lane + pairs]
                alive[lane] = False
                num_alive -= lane.size
                if 0 < num_alive <= COMPACT_RATIO * alive.size:
                    keep = np.flatnonzero(alive)
                    block = block.take(np.concatenate([keep, keep + pairs]))
                    orig = orig[keep]
                    pairs = keep.size
                    alive = np.ones(pairs, dtype=bool)
                    history = np.empty(
                        (width, 2 * pairs, words), dtype=np.uint64
                    )
                    if stats is not None:
                        stats["compactions"] += 1
        if not num_alive:
            break
        base += width
        if base > max_rounds:
            raise RuntimeError(
                f"preperiod exceeds {max_rounds} rounds (inconsistent state)"
            )
    if stats is not None:
        stats["rounds"] += base + width - 1
    return preperiods, cycle_words


def batch_limit_cycles(
    n: int,
    pointers: np.ndarray,
    counts: np.ndarray,
    max_rounds: int,
    strict: bool = True,
    *,
    _fingerprint_weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> BatchLimitCycles:
    """Brent's cycle search over every lane, array-native end to end.

    Stepping, the snapshot schedule and the round-vs-snapshot
    comparisons are all vectorized over the unresolved lanes, one slab
    of ``BatchRingKernel._WINDOW`` rounds at a time; configurations are
    compared through uint64 fingerprints with byte-exact confirmation
    of every hit, so results match
    :func:`repro.core.limit.find_limit_cycle` exactly (both compute the
    true minimal period and preperiod).

    Both phases compact resolved lanes out of their working arrays at
    :data:`COMPACT_RATIO`.  ``_fingerprint_weights`` lets tests inject
    degenerate weights to force fingerprint collisions.

    A lane resolves exactly when doubling Brent's phase 1 would confirm
    its period within ``max_rounds`` (:func:`_brent_rounds`), though the
    extra snapshots may catch it sooner.  With ``strict``, any other
    lane raises ``RuntimeError`` (mirroring the reference); otherwise
    unresolved lanes report -1, letting sweeps record truncation
    instead of dying mid-grid.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be positive, got {max_rounds}")
    block = lane_block(n, pointers, counts)
    dtype = block.cnt.dtype
    initial = block.pack()
    fingerprint = _Fingerprinter(
        initial.shape[1], dtype, weights=_fingerprint_weights
    )
    tel = _telemetry()
    stats = (
        None
        if tel is None
        else {
            "rounds": 0, "lane_rounds": 0, "epochs": 0, "fp_hits": 0,
            "fp_confirmed": 0, "compactions": 0,
        }
    )
    periods, starts, start_words = _brent_periods(
        block, max_rounds, fingerprint, stats
    )
    preperiods, cycle_words = _brent_preperiods(
        start_words, starts, periods, n, dtype, max_rounds, fingerprint,
        stats,
    )
    truncated = (periods < 0) | (
        _brent_rounds(preperiods, periods) > max_rounds
    )
    if strict and truncated.any():
        raise RuntimeError(
            f"{np.count_nonzero(truncated)} lanes have no limit cycle "
            f"confirmed within {max_rounds} rounds"
        )
    preperiods[truncated] = -1
    periods[truncated] = -1
    cycle_words[truncated] = initial[truncated]
    if tel is not None:
        resolved = int(np.count_nonzero(~truncated))
        tel.count_many({
            "limit.invocations": 1,
            "limit.lanes": len(periods),
            "limit.rounds": stats["rounds"],
            "limit.lane_rounds": stats["lane_rounds"],
            "limit.epochs": stats["epochs"],
            "limit.fp_hits": stats["fp_hits"],
            "limit.fp_confirmed": stats["fp_confirmed"],
            "limit.fp_collisions": stats["fp_hits"] - stats["fp_confirmed"],
            "limit.compactions": stats["compactions"],
            "limit.lanes_resolved": resolved,
            "limit.lanes_truncated": len(periods) - resolved,
        })
    rows_ptr, rows_cnt = _unpack(cycle_words, n, dtype)
    return BatchLimitCycles(
        preperiods=preperiods,
        periods=periods,
        pointers=2 * rows_ptr.astype(np.int8) - 1,
        counts=rows_cnt.astype(np.int64),
    )


def batch_return_gaps(
    n: int, cycles: BatchLimitCycles
) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane (worst, best) visit gaps within one limit-cycle period.

    Scans exactly one period per lane from its cycle start, the
    configuration ``cycles`` carries for round mu, recording per-node
    gaps between consecutive visits, including the wrap-around gap
    (last visit -> first visit of the next repetition), exactly like
    :func:`repro.core.limit.return_time_exact`.

    The scan sorts lanes by period, so the active set is a contiguous
    prefix: lanes whose period ended are dropped from the ``first``/
    ``last``/``max_gap`` updates entirely (the per-round temporaries
    shrink with the active prefix) instead of being masked at full
    width.
    """
    periods = cycles.periods
    if np.any(periods < 1):
        raise ValueError(
            "every lane needs a confirmed cycle; take the resolved "
            "(period > 0) lanes before computing gaps"
        )
    order = np.argsort(-periods, kind="stable")
    block = lane_block(n, cycles.pointers[order], cycles.counts[order])
    num_lanes = block.rows
    schedule = periods[order]

    # Use the narrowest stamp dtype the longest period fits in — the
    # scan's cost is memory traffic over these arrays; a period long
    # enough to overflow int64 could never be scanned anyway.
    longest = int(schedule[0])
    if longest < 2**15 - 1:
        stamp = np.int16
    elif longest < 2**31 - 1:
        stamp = np.int32
    else:
        stamp = np.int64
    first = np.full((num_lanes, n), -1, dtype=stamp)
    last = np.full((num_lanes, n), -1, dtype=stamp)
    max_gap = np.zeros((num_lanes, n), dtype=stamp)
    visits = np.empty((num_lanes, n), dtype=bool)
    mask = np.empty((num_lanes, n), dtype=bool)
    gap = np.empty((num_lanes, n), dtype=stamp)
    ascending = -schedule
    first_open = 0  # lanes [first_open:active] still have unset `first`
    for t in range(int(schedule[0])):
        active = int(np.searchsorted(ascending, -t, side="left"))
        if active == 0:
            break
        block.step_prefix(active)
        # All updates run in place on the active prefix — no per-round
        # allocations, no full-batch temporaries.  The max_gap update
        # is unmasked on purpose: for a node visited at t the value
        # t - last is exactly the gap being closed; between visits the
        # committed values only grow toward that same closing value;
        # and after the final visit they stay strictly below the
        # wrap-around term (t - last < first + period - last, as
        # first >= 0 and t < period), which the maximum with ``wrap``
        # takes anyway.  Never-visited nodes are overwritten with inf.
        vis, g = visits[:active], gap[:active]
        last_a = last[:active]
        np.not_equal(block.cnt[:active], 0, out=vis)
        np.subtract(t, last_a, out=g, casting="unsafe")
        np.maximum(max_gap[:active], g, out=max_gap[:active])
        if first_open < active:
            # `first` needs per-node stamping only until every node of
            # a lane has been seen once (within ~n/k rounds on a ring,
            # far sooner than the period); finished lanes are skipped
            # wholesale via the sorted prefix.
            first_a = first[first_open:active]
            m = mask[first_open:active]
            np.less(first_a, 0, out=m)
            m &= visits[first_open:active]
            np.copyto(first_a, t, where=m)
            while first_open < active and not bool(
                (first[first_open] < 0).any()
            ):
                first_open += 1
        np.copyto(last_a, t, where=vis)

    wrap = first.astype(np.int64) + schedule[:, np.newaxis] - last
    gaps = np.maximum(max_gap, wrap).astype(float)
    gaps[first < 0] = np.inf  # never visited in-cycle (impossible on a ring)
    worst = np.empty(num_lanes)
    best = np.empty(num_lanes)
    worst[order] = gaps.max(axis=1)
    best[order] = gaps.min(axis=1)
    tel = _telemetry()
    if tel is not None:
        tel.count_many({
            "gaps.invocations": 1,
            "gaps.lanes": num_lanes,
            "gaps.rounds": longest,
            # Row-rounds actually stepped: one period per lane, on a
            # shrinking sorted prefix.
            "gaps.lane_rounds": int(periods.sum()),
        })
    return worst, best
