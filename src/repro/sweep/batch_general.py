"""CSR-batched rotor-router kernel for arbitrary port-labeled graphs.

The ring kernels exploit degree-2 structure for branch-free arithmetic;
general graphs have none, so this kernel vectorizes along a different
axis: **occupancy is sparse**.  A round moves agents out of the
occupied ``(lane, node)`` pairs only, and the number of occupied pairs
is bounded by the agent count — never by ``B·n`` — so the per-round
cost is a fixed sequence of numpy operations over arrays of size
``O(occupied pairs + arcs used)``, independent of how large the graphs
are.

**Layout.**  Every lane (one ``(graph, pointers, agents)`` instance)
owns a contiguous *slab* of one flat state vector: state index
``slab_base[lane] + v`` holds node ``v``'s pointer and visited flag.
Graphs are packed once into stacked CSR arrays
(:class:`repro.graphs.base.GraphCSR`: ``indptr``/flat ``neighbors``/
``deg``), and per-state gather tables (``deg``, ``indptr`` row, slab
base, owning lane) are precomputed at construction, so lanes over
*different* graphs coexist in one kernel — all seeds × k-values of
every family in a chunk share each round's numpy dispatches.

**Round.**  For each occupied pair with ``c`` agents at a node of
degree ``d`` and pointer ``p``, the paper's round-robin rule sends the
agents through ports ``p, p+1, ..., p+min(c,d)-1 (mod d)``, port ``j``
carrying ``c // d + (j < c mod d)`` agents, and leaves the pointer at
``(p + c) mod d``.  The fan-out is built with repeat/cumcount
indexing (one segment per pair), arc targets come from one gather of
the stacked CSR, and arrivals merge with ``np.unique`` + ``bincount``
— the merged unique targets are exactly the next round's occupied
pairs, so no dense scan ever happens.  Rounds where every pair holds a
single agent (the common steady state once agents spread) skip the
fan-out machinery entirely.

**Tail.**  Cover detection is exact per round (fresh arrivals decrement
a per-lane unvisited counter; initial occupancy counts at round 0), and
resolved lanes drop out of the occupied set immediately.  When the
surviving work is too small to amortize numpy dispatch — a few
straggler lanes with a handful of agents — the driver hands each
remaining lane to a scalar pure-Python finisher over the same CSR
(plain-list indexing, ~0.2–2 µs/round vs ~10 µs of per-round numpy
overhead), which is what keeps long single-agent lanes from running at
dispatch cost.  The crossover is the module constant
:data:`SCALAR_TAIL_PAIRS`, read at call time.  Both phases implement
the identical update rule;
``tests/test_sweep_batch_general.py`` pins the kernel configuration-
for-configuration against :class:`repro.core.engine.MultiAgentRotorRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graphs.base import GraphCSR
from repro.obs.telemetry import active as _telemetry

#: Scalar-finisher crossover: once the occupied-pair count (a proxy for
#: both lane count and per-round numpy work) drops to this, remaining
#: lanes finish on the pure-Python scalar stepper.  Measured on the
#: speedup_graphs grid: vector rounds cost ~10 µs of dispatch plus
#: ~0.05 µs/pair, scalar rounds ~0.2–0.5 µs/pair with no floor, and a
#: threshold sweep (16..192) bottoms out around 64 pairs.  Scheduling
#: only — both phases are exact.  ``run_until_covered`` reads it at
#: call time, so tests can patch it.
SCALAR_TAIL_PAIRS = 64


@dataclass(frozen=True)
class GeneralLane:
    """One rotor-router instance scheduled into the batched kernel.

    ``pointers`` and ``agents`` accept any integer array-likes; the
    kernel reads them through ``np.asarray``.
    """

    csr: GraphCSR
    pointers: np.ndarray
    agents: np.ndarray
    max_rounds: int


def _as_lane(csr, pointers, agents, max_rounds) -> GeneralLane:
    """Validate one lane tuple (vectorized — this runs per chunk)."""
    n = csr.num_nodes
    ptr = np.asarray(pointers, dtype=np.int64)
    if ptr.shape != (n,):
        raise ValueError(
            f"lane has {ptr.size} pointers for a {n}-node graph"
        )
    agent_nodes = np.asarray(agents, dtype=np.int64)
    if agent_nodes.size == 0:
        raise ValueError("every lane requires at least one agent")
    bad = (ptr < 0) | (ptr >= csr.deg)
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"pointer {int(ptr[v])} at node {v} out of range for degree "
            f"{int(csr.deg[v])}"
        )
    if ((agent_nodes < 0) | (agent_nodes >= n)).any():
        raise ValueError(f"agent position out of range for {n} nodes")
    max_rounds = int(max_rounds)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    return GeneralLane(
        csr=csr, pointers=ptr, agents=agent_nodes, max_rounds=max_rounds
    )


class BatchGeneralKernel:
    """``B`` independent rotor-router lanes over shared CSR graphs.

    Parameters
    ----------
    lanes:
        ``(csr, pointers, agents, max_rounds)`` tuples (or
        :class:`GeneralLane`).  Lanes may reference *different* graphs;
        identical :class:`GraphCSR` objects (or equal digests) share
        one stacked copy.  ``max_rounds`` is per lane: a lane that has
        not covered when its budget elapses freezes with cover ``-1``.
    """

    def __init__(self, lanes: Sequence) -> None:
        if not lanes:
            raise ValueError("at least one lane is required")
        built = [
            lane if isinstance(lane, GeneralLane) else _as_lane(*lane)
            for lane in lanes
        ]
        self.num_lanes = len(built)
        self._lanes = built

        # Stack each distinct graph's CSR once (keyed by digest).
        graphs: list[GraphCSR] = []
        graph_of: dict[str, int] = {}
        lane_graph = np.empty(self.num_lanes, dtype=np.int64)
        for i, lane in enumerate(built):
            gid = graph_of.get(lane.csr.digest)
            if gid is None:
                gid = len(graphs)
                graph_of[lane.csr.digest] = gid
                graphs.append(lane.csr)
            lane_graph[i] = gid
        arc_base = np.zeros(len(graphs) + 1, dtype=np.int64)
        np.cumsum([g.num_arcs for g in graphs], out=arc_base[1:])
        self._nbr = (
            np.concatenate([g.neighbors for g in graphs])
            if arc_base[-1]
            else np.zeros(0, dtype=np.int64)
        )

        # Per-lane slabs of the flat state vector.
        sizes = np.array([lane.csr.num_nodes for lane in built], np.int64)
        slab_base = np.zeros(self.num_lanes + 1, dtype=np.int64)
        np.cumsum(sizes, out=slab_base[1:])
        self._slab_base = slab_base
        states = int(slab_base[-1])

        # Per-state gather tables: degree, CSR row start, owning slab
        # base and owning lane — one gather each per round instead of
        # lane-by-lane address arithmetic.
        self._ptr = np.empty(states, dtype=np.int64)
        self._deg_s = np.empty(states, dtype=np.int64)
        self._row_s = np.empty(states, dtype=np.int64)
        self._base_s = np.empty(states, dtype=np.int64)
        self._lane_s = np.empty(states, dtype=np.int64)
        self._visited = np.zeros(states, dtype=bool)

        self.cover_rounds = np.full(self.num_lanes, -1, dtype=np.int64)
        self._unvisited = np.zeros(self.num_lanes, dtype=np.int64)
        self._budgets = np.array(
            [lane.max_rounds for lane in built], dtype=np.int64
        )
        self._active = np.ones(self.num_lanes, dtype=bool)
        #: Frozen lanes' occupancy, stashed at resolution for `counts`.
        self._frozen: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        occ_parts: list[np.ndarray] = []
        cnt_parts: list[np.ndarray] = []
        max_pairs = 0
        for i, lane in enumerate(built):
            n = lane.csr.num_nodes
            base = int(slab_base[i])
            csr = lane.csr
            self._deg_s[base:base + n] = csr.deg
            self._row_s[base:base + n] = (
                csr.indptr[:-1] + arc_base[lane_graph[i]]
            )
            self._base_s[base:base + n] = base
            self._lane_s[base:base + n] = i
            self._ptr[base:base + n] = np.asarray(lane.pointers, np.int64)
            counts = np.bincount(
                np.asarray(lane.agents, np.int64), minlength=n
            ).astype(np.int64)
            occ = np.flatnonzero(counts)
            occ_parts.append(occ + base)
            cnt_parts.append(counts[occ])
            max_pairs += int(
                min(len(lane.agents), n)
            )  # pairs in a lane never exceed min(k, n)
            self._visited[base:base + n] = counts > 0
            self._unvisited[i] = n - occ.size
            if self._unvisited[i] == 0:
                self.cover_rounds[i] = 0
                self._active[i] = False
        self._occ = np.concatenate(occ_parts)
        self._cnt = np.concatenate(cnt_parts)
        # Reusable 0..max_pairs iota: fan-out indices are slices of it.
        self._iota = np.arange(
            max(max_pairs, int(self._cnt.sum())) + 1, dtype=np.int64
        )
        self.round = 0
        self._vector_rounds = 0
        self._pair_rounds = 0
        self._scalar_lanes = 0
        self._scalar_rounds = 0
        if not self._active.all():
            self._drop_resolved()

    # ------------------------------------------------------------------
    # vectorized stepping
    # ------------------------------------------------------------------
    def _drop_resolved(self) -> None:
        """Stash and remove pairs whose lane froze (covered/out of budget)."""
        lanes = self._lane_s[self._occ]
        keep = self._active[lanes]
        if keep.all():
            return
        for lane in np.unique(lanes[~keep]):
            member = lanes == lane
            self._frozen[int(lane)] = (
                self._occ[member].copy(), self._cnt[member].copy()
            )
        self._occ = self._occ[keep]
        self._cnt = self._cnt[keep]

    def _step_vector(self) -> None:
        """One exact synchronous round over every occupied pair."""
        s = self._occ
        c = self._cnt
        self._vector_rounds += 1
        self._pair_rounds += s.size
        deg = self._deg_s[s]
        p = self._ptr[s]
        if c.max() == 1:
            # Steady-state fast path: every pair releases one agent
            # through port p; pointer advances by one.
            target = self._nbr[self._row_s[s] + p]
            p1 = p + 1
            np.subtract(p1, deg, out=p1, where=p1 >= deg)
            self._ptr[s] = p1
            dest = self._base_s[s] + target
            uniq, counts = np.unique(dest, return_counts=True)
            merged = counts
        else:
            base, extra = np.divmod(c, deg)
            wrap = p + extra
            np.subtract(wrap, deg, out=wrap, where=wrap >= deg)
            self._ptr[s] = wrap  # (p + c) mod d == (p + c mod d) mod d
            used = np.minimum(c, deg)
            starts = np.cumsum(used)
            total = int(starts[-1])
            pair = np.repeat(self._iota[:used.size], used)
            j = self._iota[:total] - (starts - used)[pair]
            port = p[pair] + j
            deg_pair = deg[pair]
            np.subtract(port, deg_pair, out=port, where=port >= deg_pair)
            target = self._nbr[self._row_s[s][pair] + port]
            moved = base[pair] + (j < extra[pair])
            dest = self._base_s[s][pair] + target
            uniq, inverse = np.unique(dest, return_inverse=True)
            # Weighted bincount is float64; exact for counts < 2^53.
            merged = np.bincount(inverse, weights=moved).astype(np.int64)
        self.round += 1
        self._occ = uniq
        self._cnt = merged
        seen = self._visited[uniq]
        if not seen.all():
            fresh = uniq[~seen]
            self._visited[fresh] = True
            self._unvisited -= np.bincount(
                self._lane_s[fresh], minlength=self.num_lanes
            )
            covered = (self._unvisited == 0) & self._active
            if covered.any():
                self.cover_rounds[covered] = self.round
                self._active &= ~covered
                self._drop_resolved()

    # ------------------------------------------------------------------
    # scalar tail
    # ------------------------------------------------------------------
    def _finish_lane_scalar(self, lane: int) -> None:
        """Run one lane to cover/budget with plain-Python stepping.

        Exactly the vector rule on list-indexed CSR; numpy scalar
        indexing inside a tight loop would cost ~10x plain lists.
        """
        base = int(self._slab_base[lane])
        n = int(self._slab_base[lane + 1]) - base
        csr = self._lanes[lane].csr
        deg = csr.deg.tolist()
        row = csr.indptr.tolist()
        nbr = csr.neighbors.tolist()
        ptr = self._ptr[base:base + n].tolist()
        visited = self._visited[base:base + n]
        vis = bytearray(visited.tobytes())
        unvisited = int(self._unvisited[lane])
        budget = int(self._budgets[lane])
        member = self._lane_s[self._occ] == lane
        occupied = dict(
            zip(
                (self._occ[member] - base).tolist(),
                self._cnt[member].tolist(),
            )
        )
        rounds = self.round
        self._scalar_lanes += 1
        cover = -1
        if len(occupied) == 1 and unvisited:
            # Single-agent ultratail: the dominant case (k = 1 lanes
            # outlive everything else) gets a dict-free loop.
            (v, c), = occupied.items()
            if c == 1:
                while rounds < budget:
                    rounds += 1
                    p = ptr[v]
                    d = deg[v]
                    ptr[v] = p + 1 if p + 1 < d else 0
                    v = nbr[row[v] + p]
                    if not vis[v]:
                        vis[v] = 1
                        unvisited -= 1
                        if unvisited == 0:
                            cover = rounds
                            break
                occupied = {v: 1}
        if unvisited and cover < 0:
            while rounds < budget:
                rounds += 1
                arrivals: dict[int, int] = {}
                for v, c in occupied.items():
                    d = deg[v]
                    p = ptr[v]
                    if c == 1:
                        # Lone agents dominate sparse lanes: skip the
                        # divmod and the port loop.
                        u = nbr[row[v] + p]
                        if u in arrivals:
                            arrivals[u] += 1
                        else:
                            arrivals[u] = 1
                        ptr[v] = p + 1 if p + 1 < d else 0
                        continue
                    start = row[v]
                    if c < d:
                        whole, part, used = 0, c, c
                    else:
                        whole, part = divmod(c, d)
                        used = d
                    for j in range(used):
                        pj = p + j
                        if pj >= d:
                            pj -= d
                        u = nbr[start + pj]
                        carried = whole + 1 if j < part else whole
                        if u in arrivals:
                            arrivals[u] += carried
                        else:
                            arrivals[u] = carried
                    pj = p + part
                    ptr[v] = pj - d if pj >= d else pj
                occupied = arrivals
                newly = 0
                for u in arrivals:
                    if not vis[u]:
                        vis[u] = 1
                        newly += 1
                if newly:
                    unvisited -= newly
                    if unvisited == 0:
                        cover = rounds
                        break
        # Write the lane's final state back into the shared arrays.
        self._ptr[base:base + n] = ptr
        self._visited[base:base + n] = np.frombuffer(
            bytes(vis), dtype=bool
        )
        self._unvisited[lane] = unvisited
        nodes = np.fromiter(occupied, dtype=np.int64, count=len(occupied))
        order = np.argsort(nodes)
        nodes = nodes[order] + base
        values = np.fromiter(
            occupied.values(), dtype=np.int64, count=len(occupied)
        )[order]
        self._frozen[lane] = (nodes, values)
        self._scalar_rounds += rounds - self.round
        self.cover_rounds[lane] = cover if unvisited == 0 else -1
        self._active[lane] = False

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run_until_covered(
        self, strict: bool = True
    ) -> np.ndarray:
        """Run every lane to its cover round (or its budget).

        Returns per-lane cover rounds; a truncated lane reports ``-1``
        (``strict=True`` raises instead, mirroring the serial engine's
        loud budget failure).  Lanes freeze at resolution: their final
        ``(pointers, counts)`` are exactly the serial engine's state at
        the returned round.
        """
        # Budget freezing runs at *deadlines*, not per round: the
        # earliest active budget is the first round any lane can
        # exhaust, so rounds below it skip the (B,) exhaustion mask
        # entirely.  Lanes covering mid-flight only shrink the active
        # set, so a stale deadline is at most early — never late — and
        # the freeze round stays exact.
        deadline = (
            int(self._budgets[self._active].min())
            if self._active.any()
            else 0
        )
        tail_pairs = SCALAR_TAIL_PAIRS
        while self._occ.size:
            if self._occ.size <= tail_pairs:
                for lane in np.unique(self._lane_s[self._occ]).tolist():
                    self._finish_lane_scalar(int(lane))
                self._occ = self._occ[:0]
                self._cnt = self._cnt[:0]
                break
            if self.round >= deadline:
                exhausted = self._active & (self._budgets <= self.round)
                if exhausted.any():
                    self._active &= ~exhausted
                    self._drop_resolved()
                    if not self._occ.size:
                        break
                deadline = (
                    int(self._budgets[self._active].min())
                    if self._active.any()
                    else self.round + 1
                )
            self._step_vector()
        if strict and (self.cover_rounds < 0).any():
            truncated = int(np.count_nonzero(self.cover_rounds < 0))
            raise RuntimeError(
                f"{truncated} lanes not covered within their budgets"
            )
        tel = _telemetry()
        if tel is not None:
            covered = int((self.cover_rounds >= 0).sum())
            tel.count_many({
                "general.invocations": 1,
                "general.lanes": self.num_lanes,
                "general.vector_rounds": self._vector_rounds,
                "general.pair_rounds": self._pair_rounds,
                "general.scalar_lanes": self._scalar_lanes,
                "general.scalar_rounds": self._scalar_rounds,
                "general.lanes_covered": covered,
                "general.lanes_truncated": self.num_lanes - covered,
            })
        return self.cover_rounds.copy()

    # ------------------------------------------------------------------
    # state inspection (equivalence tests, debugging)
    # ------------------------------------------------------------------
    def lane_state(self, lane: int) -> tuple[np.ndarray, np.ndarray]:
        """``(pointers, counts)`` of one lane's current configuration."""
        if not 0 <= lane < self.num_lanes:
            raise IndexError(f"lane {lane} out of range")
        base = int(self._slab_base[lane])
        n = int(self._slab_base[lane + 1]) - base
        pointers = self._ptr[base:base + n].copy()
        counts = np.zeros(n, dtype=np.int64)
        if lane in self._frozen:
            occ, cnt = self._frozen[lane]
            counts[occ - base] = cnt
        else:
            member = self._lane_s[self._occ] == lane
            counts[self._occ[member] - base] = self._cnt[member]
        return pointers, counts


def batch_general_covers(lanes: Sequence, strict: bool = False) -> np.ndarray:
    """Cover rounds of many general-graph rotor lanes, batched.

    ``lanes`` holds ``(csr, pointers, agents, max_rounds)`` tuples; the
    result is one cover round per lane in order (-1 for lanes that
    exhausted their budget when ``strict`` is off).
    """
    return BatchGeneralKernel(lanes).run_until_covered(strict=strict)
