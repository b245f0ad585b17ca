"""Vectorized batch random-walk kernel: many walk systems per numpy op.

The paper's headline claim is comparative — the rotor-router against
*parallel random walks* — so sweeps need the stochastic side of
Table 1 at the same batched scale as :mod:`repro.sweep.batch_ring`
gives the deterministic side.  A walk cell fans out over R seeded
repetitions; a chunk of cells therefore becomes ``R·B`` independent
lanes, each lane being one k-walker system on the n-ring.

The kernel is seed-for-seed equivalent to the reference
:class:`repro.randomwalk.ring_walk.RingRandomWalks` but replaces its
flatten-and-``np.unique`` first-visit scan with an *interval-event*
sweep.  A ±1 walker's visited set on the ring is always the circular
projection of one contiguous unwrapped interval ``[lo, hi]``, and that
interval grows by at most one node per round, so the complete
first-visit history of a trajectory block is recovered from the
running ``maximum.accumulate`` / ``minimum.accumulate`` of the
unwrapped cumulative-sum trajectory: every row where the running
extreme advances past the walker's previous bound is one "new node"
event.  Events are *sparse* (O(nodes visited), not O(rounds·walkers)),
so the per-element work drops to a handful of cheap int8/int32 passes
— no per-element modulo, no gather into the visit table.

**Seed-for-seed equivalence**: lane ``b`` with seed ``s`` consumes its
generator identically to ``RingRandomWalks(n, positions, seed=s)``
driven with the same ``block_size`` (the kernel reads the reference's
default, :data:`repro.randomwalk.ring_walk.BLOCK_SIZE`, at
construction).  Two stream facts make the fused draws exact, both
pinned by the ``walk/fusion`` row of ``tests/differential.py``:
``Generator.choice`` over a 2-element population consumes exactly one
64-bit word per element in C order, so (1) it equals
``2·integers(0, 2, dtype=int64) − 1`` element for element, and (2) any
partition of the same total element count into successive draws yields
the same increments.  Per-lane cover rounds are therefore *exactly*
those of the reference — not merely equal in distribution — which
``tests/test_sweep_batch_walk.py`` pins over randomized
configurations.  Lanes that cover stop drawing at the next epoch
boundary, mirroring the reference's early exit.

**Round fusion**: one ``_advance_epoch`` dispatch advances up to
``FUSE_ROUNDS * block_size`` rounds (:data:`FUSE_ROUNDS`), so the
per-lane RNG draw becomes one ``(T·block, k)`` matrix instead of ``T``
successive ``(block, k)`` matrices.  The trajectory is still
*processed* in ``block_size`` sub-blocks (cache-resident working set,
and covered lanes drop out between sub-blocks so fusion adds no wasted
compute, only wasted tail draws that nothing ever observes).  The only
behavioral wrinkle is freezing: the unfused driver re-evaluates the
active set every ``block_size`` rounds, so a lane that covers inside
an epoch must report the positions it had at the end of the
``block_size``-aligned sub-block in which it covered — dropping its
columns between sub-blocks yields exactly that.  Fused-vs-unfused
bit-identity is pinned by the ``walk/fusion`` row of
``tests/differential.py``, which patches :data:`FUSE_ROUNDS` to 1, 7
and 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.telemetry import active as _telemetry
from repro.randomwalk import ring_walk
from repro.util.rng import make_rng

#: Blocks fused into one epoch (one RNG draw + one trajectory
#: recovery per lane per epoch).  Identity-neutral: any value yields
#: bit-identical covers, visit rounds and final positions.
#: ``_epoch_rounds`` reads it at call time, so tests can patch it.
FUSE_ROUNDS = 4

#: Cap on ``rounds × walkers`` elements drawn per fused epoch — bounds
#: the per-epoch increment matrix (int8, ~4 MiB at the cap) and the
#: RNG tail wasted on lanes that cover mid-epoch.  Scheduling only:
#: the effective epoch shrinks, results never change.
_EPOCH_ELEMENT_BUDGET = 1 << 22


@dataclass(frozen=True)
class WalkLane:
    """One independent k-walker system: starting nodes plus its seed."""

    positions: tuple[int, ...]
    seed: int


class BatchRingWalks:
    """``L`` independent k-walk systems on n-rings, advanced together.

    Parameters
    ----------
    n:
        Ring size shared by every lane (>= 3).
    lanes:
        One :class:`WalkLane` per system; lanes may have different
        walker counts (the walker axis is ragged and concatenated).

    Rounds are simulated in blocks of
    :data:`repro.randomwalk.ring_walk.BLOCK_SIZE`, read at
    construction, so tests can patch it.
    """

    def __init__(self, n: int, lanes: Sequence[WalkLane]) -> None:
        if n < 3:
            raise ValueError(f"ring requires n >= 3, got {n}")
        if not lanes:
            raise ValueError("at least one lane is required")
        self.n = n
        self.block_size = ring_walk.BLOCK_SIZE
        self.num_lanes = len(lanes)
        self.round = 0
        self._blocks = 0
        self._epochs = 0
        self._lane_rounds = 0

        self._rngs = [make_rng(lane.seed) for lane in lanes]
        self._positions: list[np.ndarray] = []
        for b, lane in enumerate(lanes):
            positions = np.asarray(lane.positions, dtype=np.int64)
            if positions.size == 0:
                raise ValueError(f"lane {b}: at least one walker is required")
            if np.any((positions < 0) | (positions >= n)):
                raise ValueError(f"lane {b}: walker position out of range")
            self._positions.append(positions)
        # Per-walker visited-interval bounds, stored as non-negative
        # offsets from the current position (hi = pos + hi_rel,
        # lo = pos - lo_rel on the unwrapped line).  Both are clamped
        # to n: once a walker's interval spans the ring, any wider
        # bound generates only events the visit-table filter discards.
        self._hi_rel = [np.zeros(p.size, dtype=np.int64) for p in self._positions]
        self._lo_rel = [np.zeros(p.size, dtype=np.int64) for p in self._positions]

        #: Exact first-visit round per (lane, node); -1 = not yet visited.
        self.first_visit = np.full((self.num_lanes, n), -1, dtype=np.int64)
        for b, positions in enumerate(self._positions):
            self.first_visit[b, positions] = 0
        self.unvisited = np.count_nonzero(self.first_visit < 0, axis=1)
        #: Exact cover round per lane; -1 = not yet covered.
        self.cover_rounds = np.full(self.num_lanes, -1, dtype=np.int64)
        self.cover_rounds[self.unvisited == 0] = 0

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def _advance_epoch(
        self, active: np.ndarray, total: int, drop_covered: bool = False
    ) -> None:
        """Advance the ``active`` lanes ``total`` rounds in one epoch.

        The per-lane increment draws are deliberately separate calls on
        separate generators (that is what makes each lane reproduce its
        standalone reference run); everything downstream runs on the
        concatenated ``(total, W)`` matrix, processed in ``block_size``
        sub-blocks.  With ``drop_covered`` a lane that covers drops out
        of the remaining sub-blocks, keeping the positions and interval
        bounds it held at the end of its covering sub-block — exactly
        the state the unfused driver would have frozen.
        """
        widths = [self._positions[b].size for b in active]
        num_walkers = int(sum(widths))
        # One fused draw per lane; integers(0, 2) is stream-identical
        # to the reference's choice((-1, 1)) (module docstring).  The
        # draw is (total, k) to preserve the stream's time-major order,
        # then transposed into the walker-major working layout so every
        # cumulative scan below runs along a contiguous axis.
        inc = np.empty((num_walkers, total), dtype=np.int8)
        offset = 0
        for b, width in zip(active, widths):
            inc[offset:offset + width] = self._rngs[b].integers(
                0, 2, size=(total, width), dtype=np.int64
            ).T
            offset += width
        inc *= 2
        inc -= 1

        # Sub-block trajectories live in a frame relative to each
        # walker's sub-block start, so int16 suffices for any ring the
        # interval bounds (<= n) fit in; absolute unwrapped positions
        # drift by at most `total` per epoch and stay int32.
        if self.n + self.block_size < 2**15:
            fdtype = np.int16
        elif self.n + self.block_size < 2**31:
            fdtype = np.int32
        else:  # pragma: no cover - astronomically large rings
            fdtype = np.int64
        cdtype = np.int32 if self.n + total < 2**31 - 1 else np.int64
        walker_lane = np.repeat(np.asarray(active, dtype=np.int64), widths)
        lane_off = walker_lane * self.n
        cur = np.concatenate([self._positions[b] for b in active]).astype(cdtype)
        hi_rel = np.concatenate([self._hi_rel[b] for b in active]).astype(fdtype)
        lo_rel = np.concatenate([self._lo_rel[b] for b in active]).astype(fdtype)

        flat_first = self.first_visit.ravel()
        base_round = self.round
        act = np.arange(num_walkers)
        for t0 in range(0, total, self.block_size):
            if not act.size:
                break  # every processed lane has covered
            t1 = min(total, t0 + self.block_size)
            sub = inc[act, t0:t1] if act.size < num_walkers else inc[:, t0:t1]
            span = t1 - t0
            hr = hi_rel[act]
            lr = lo_rel[act]
            neg_lr = -lr
            traj = np.cumsum(sub, axis=1, dtype=fdtype)
            rowmax = traj.max(axis=1)
            rowmin = traj.min(axis=1)
            # New-territory events: a ±1 walker's visited set is the
            # circular projection of its unwrapped interval, so first
            # visits happen exactly where a running extreme advances
            # past the walker's previous bound (by 1 per row, at most).
            # Each side scans only the rows whose extreme escaped.
            ev_parts: list[tuple[np.ndarray, np.ndarray]] = []
            for escape, bounds, accum, compare in (
                (rowmax > hr, hr, np.maximum, np.greater),
                (rowmin < neg_lr, neg_lr, np.minimum, np.less),
            ):
                rows = np.flatnonzero(escape)
                if not rows.size:
                    continue
                csub = traj[rows] if rows.size < act.size else traj
                bound = bounds[rows][:, None]
                cext = accum.accumulate(csub, axis=1)
                accum(cext, bound, out=cext)
                grow = np.empty(csub.shape, dtype=bool)
                compare(cext[:, :1], bound, out=grow[:, :1])
                compare(cext[:, 1:], cext[:, :-1], out=grow[:, 1:])
                ev = np.flatnonzero(grow.ravel())
                walkers = act[rows[ev // span]]
                vals = cext.ravel()[ev].astype(np.int64)
                vals += cur[walkers]
                gids = lane_off[walkers] + vals % self.n
                ev_parts.append((gids, base_round + t0 + ev % span + 1))
            if ev_parts:
                gids = np.concatenate([p[0] for p in ev_parts])
                rounds = np.concatenate([p[1] for p in ev_parts])
                # Drop already-visited nodes *before* sorting: surviving
                # events are O(first visits), not O(interval growth).
                keep = np.flatnonzero(flat_first[gids] < 0)
                if keep.size:
                    gids = gids[keep]
                    rounds = rounds[keep]
                    # Order by round so the first-occurrence sort below
                    # keeps the earliest visit per node.
                    order = np.argsort(rounds, kind="stable")
                    visited, first_index = np.unique(
                        gids[order], return_index=True
                    )
                    flat_first[visited] = rounds[order[first_index]]
                    lanes_hit = visited // self.n
                    self.unvisited -= np.bincount(
                        lanes_hit, minlength=self.num_lanes
                    )
                    newly = np.unique(lanes_hit)
                    covered = newly[
                        (self.unvisited[newly] == 0)
                        & (self.cover_rounds[newly] < 0)
                    ]
                    if covered.size:
                        # Exact: the cover round is the latest first
                        # visit, wherever in the sub-block it happened.
                        self.cover_rounds[covered] = (
                            self.first_visit[covered].max(axis=1)
                        )
            # Carry the frame to the next sub-block: shift the interval
            # bounds by the walker's net displacement and re-clamp.
            tlast = traj[:, -1]
            hi_rel[act] = np.minimum(np.maximum(hr, rowmax) - tlast, self.n)
            lo_rel[act] = np.minimum(np.maximum(lr, -rowmin) + tlast, self.n)
            cur[act] += tlast
            if drop_covered:
                act = act[self.cover_rounds[walker_lane[act]] < 0]

        # Write-back: wrapped positions plus the interval offsets.
        # Lanes dropped mid-epoch keep the values from the end of their
        # covering sub-block — the unfused freeze semantics.
        pos_mod = (cur % self.n).astype(np.int64)
        hi64 = hi_rel.astype(np.int64)
        lo64 = lo_rel.astype(np.int64)
        offset = 0
        for b, width in zip(active, widths):
            span = slice(offset, offset + width)
            self._positions[b] = pos_mod[span]
            self._hi_rel[b] = hi64[span]
            self._lo_rel[b] = lo64[span]
            offset += width
        self.round += total
        self._blocks += -(-total // self.block_size)
        self._epochs += 1
        self._lane_rounds += total * len(active)

    def _uncovered(self) -> np.ndarray:
        return np.flatnonzero(self.cover_rounds < 0)

    def _epoch_rounds(self, active: np.ndarray, remaining: int) -> int:
        """Rounds the next fused dispatch should advance.

        Up to :data:`FUSE_ROUNDS` whole blocks, clamped so the epoch's
        ``rounds × walkers`` working set stays under
        :data:`_EPOCH_ELEMENT_BUDGET` — scheduling only, since any
        block partition is stream-identical (module docstring).
        """
        walkers = sum(self._positions[b].size for b in active)
        per_block = self.block_size * max(1, walkers)
        blocks = max(1, min(FUSE_ROUNDS, _EPOCH_ELEMENT_BUDGET // per_block))
        return min(blocks * self.block_size, remaining)

    def run(self, rounds: int) -> None:
        """Advance every lane ``rounds`` rounds (fused block-wise)."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        all_lanes = np.arange(self.num_lanes)
        remaining = rounds
        while remaining > 0:
            block = self._epoch_rounds(all_lanes, remaining)
            self._advance_epoch(all_lanes, block)
            remaining -= block

    def run_until_covered(
        self, max_rounds: int, strict: bool = True
    ) -> np.ndarray:
        """Advance until every lane covers; per-lane exact cover rounds.

        With ``strict``, lanes still uncovered after ``max_rounds``
        raise ``RuntimeError`` (mirroring the reference); otherwise
        they report -1, letting sweeps record truncation instead of
        dying mid-grid.  Covered lanes stop drawing from their
        generators, exactly like a standalone run that has returned.
        """
        active = self._uncovered()
        while active.size:
            if self.round >= max_rounds:
                if strict:
                    raise RuntimeError(
                        f"{active.size} of {self.num_lanes} lanes not "
                        f"covered within {max_rounds} rounds"
                    )
                break
            block = self._epoch_rounds(active, max_rounds - self.round)
            self._advance_epoch(active, block, drop_covered=True)
            active = self._uncovered()
        tel = _telemetry()
        if tel is not None:
            covered = int((self.cover_rounds >= 0).sum())
            tel.count_many({
                "walk.invocations": 1,
                "walk.lanes": self.num_lanes,
                "walk.walkers": sum(p.size for p in self._positions),
                "walk.rounds": self.round,
                "walk.blocks": self._blocks,
                "walk.epochs": self._epochs,
                "walk.lane_rounds": self._lane_rounds,
                "walk.lanes_covered": covered,
                "walk.lanes_truncated": self.num_lanes - covered,
            })
        return self.cover_rounds.copy()

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    def positions_lane(self, lane: int) -> list[int]:
        """Current walker positions of one lane (walker order preserved)."""
        return [int(v) for v in self._positions[lane]]

    def unvisited_lane(self, lane: int) -> int:
        return int(self.unvisited[lane])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchRingWalks(n={self.n}, lanes={self.num_lanes}, "
            f"round={self.round})"
        )


def walk_lanes_from_cells(
    cells: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> tuple[list[WalkLane], list[tuple[int, int]]]:
    """Fan ``(agents, rep_seeds)`` cells out into repetition lanes.

    Returns the flat lane list plus per-cell ``(start, stop)`` slices
    into it, so callers can aggregate per-cell statistics from the
    kernel's flat per-lane results.
    """
    lanes: list[WalkLane] = []
    slices: list[tuple[int, int]] = []
    for agents, rep_seeds in cells:
        if not rep_seeds:
            raise ValueError("every cell needs at least one repetition seed")
        start = len(lanes)
        positions = tuple(int(a) for a in agents)
        lanes.extend(WalkLane(positions=positions, seed=int(s)) for s in rep_seeds)
        slices.append((start, len(lanes)))
    return lanes, slices
