"""The batch ring kernel must match the reference engines exactly.

Three layers of equivalence:

* lockstep — random configurations stepped side by side with the
  sparse :class:`repro.core.ring.RingRotorRouter` (positions, pointer
  directions, unvisited counts identical every round);
* cover — per-lane cover rounds from the windowed bulk driver equal
  the reference's, over 200+ randomized configurations batched into
  shared kernels (the acceptance bar of the sweep subsystem);
* limit behaviour — per-lane Brent preperiods/periods and in-cycle
  return gaps equal :mod:`repro.core.limit`'s exact results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.core import placement, pointers
from repro.core.ring import RingRotorRouter
from repro.graphs.ring import ring_graph
from repro.obs.manifest import load_manifest, trace_session
from repro.obs.telemetry import Telemetry, set_active
from repro.sweep import batch_ring
from repro.sweep.batch_general import batch_general_covers
from repro.sweep.batch_ring import (
    BatchRingKernel,
    _jump_length,
    _padded_columns,
    batch_limit_cycles,
    batch_return_gaps,
    lane_block,
    lanes_from_configs,
    single_agent_covers,
    sparse_ring_covers,
)


def _fingerprint_words(n: int, max_agents: int = 126) -> int:
    """Word count of the fingerprint weight vectors for an int8 batch."""
    dtype = np.dtype(np.int8) if max_agents <= 126 else np.dtype(np.int16)
    return _padded_columns(n, dtype) * dtype.itemsize // 8


@st.composite
def lane_setup(draw):
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, 2 * n))  # dense regimes escalate the dtype
    dirs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    agents = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    rounds = draw(st.integers(1, 80))
    return n, dirs, agents, rounds


def _random_configuration(rng, n, max_k):
    k = int(rng.integers(1, max_k))
    dirs = [int(d) for d in rng.choice((1, -1), size=n)]
    agents = [int(a) for a in rng.integers(0, n, size=k)]
    return dirs, agents


class TestLockstep:
    @given(lane_setup())
    @settings(max_examples=50, deadline=None)
    def test_matches_sparse_engine(self, setup):
        n, dirs, agents, rounds = setup
        ref = RingRotorRouter(n, list(dirs), agents, track_counts=False)
        ptr, cnt = lanes_from_configs(n, [(dirs, agents)])
        kernel = BatchRingKernel(n, ptr, cnt)
        for _ in range(rounds):
            ref.step()
            kernel.step()
            assert ref.positions() == kernel.positions(0)
            assert list(ref.ptr) == kernel.directions_lane(0)
        assert ref.unvisited == kernel.unvisited_lane(0)

    @given(lane_setup())
    @settings(max_examples=25, deadline=None)
    def test_windowed_run_matches_stepping(self, setup):
        """run() (windowed fast path) ends in the same configuration
        and the same cover round as per-step exact tracking."""
        n, dirs, agents, rounds = setup
        ptr, cnt = lanes_from_configs(n, [(dirs, agents)])
        stepped = BatchRingKernel(n, ptr, cnt)
        bulk = BatchRingKernel(n, ptr, cnt)
        for _ in range(rounds):
            stepped.step()
        bulk.run(rounds)
        assert stepped.positions(0) == bulk.positions(0)
        assert stepped.directions_lane(0) == bulk.directions_lane(0)
        assert stepped.unvisited_lane(0) == bulk.unvisited_lane(0)
        assert int(stepped.cover_rounds[0]) == int(bulk.cover_rounds[0])

    def test_visits_mark_arrivals(self):
        # Uniform clockwise pointers, one agent: node t visited at round t.
        n = 8
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0])])
        kernel = BatchRingKernel(n, ptr, cnt)
        for t in range(1, n):
            visits = kernel.step()
            assert list(np.flatnonzero(visits[0])) == [t]


class TestPaddedRows:
    """A round steps whole padded rows and leaves the padding zero."""

    @pytest.mark.parametrize("n", (37, 100, 130))
    @pytest.mark.parametrize(
        "max_k, dtype", ((16, np.int8), (200, np.int16))
    )
    def test_rows_match_the_reference_in_lockstep(self, n, max_k, dtype):
        rng = np.random.default_rng(n + max_k)
        ks = [1, 2, max_k] + rng.integers(1, max_k, size=6).tolist()
        configurations = [
            (
                rng.choice([1, -1], size=n).tolist(),
                rng.integers(0, n, size=k).tolist(),
            )
            for k in ks
        ]
        block = lane_block(n, *lanes_from_configs(n, configurations))
        assert block.cnt.dtype == dtype
        refs = [
            RingRotorRouter(n, dirs, agents, track_counts=False)
            for dirs, agents in configurations
        ]
        rows = len(refs)
        words = block.cnt_words.shape[1]
        fingerprint = batch_ring._Fingerprinter(words, words)
        # Whole steps, and prefixes committed by copy and by swap.
        for a in [rows, 2, rows, rows - 1, 1, 6, rows] * 5:
            if a == rows:
                block.step_all()
            else:
                block.step_prefix(a)
            for ref in refs[:a]:
                ref.step()
            assert block.fwd.shape == (rows, n)
            assert not block._ptr_buf[:, n:].any()
            assert not block._cnt_buf[:, n:].any()
            expected = batch_ring.LaneBlock(
                np.array([ref.ptr for ref in refs]).clip(0).astype(dtype),
                np.array([
                    np.bincount(ref.positions(), minlength=n) for ref in refs
                ]).astype(dtype),
            )
            np.testing.assert_array_equal(block.ptr, expected.ptr)
            np.testing.assert_array_equal(block.cnt, expected.cnt)
            assert block.rows_equal(expected, np.arange(rows)).all()
            np.testing.assert_array_equal(
                fingerprint.of(block), fingerprint.of(expected)
            )


class TestCoverEquivalence:
    def test_200_randomized_configurations(self):
        """Acceptance bar: >= 200 random configs, exact cover agreement.

        The k = 1 draws also run the closed form, all lanes at once and
        each alone at budgets equal to its cover and one below it."""
        rng = np.random.default_rng(20260728)
        total = 0
        singles = 0
        for n in (11, 32, 64, 3):
            configurations = [
                _random_configuration(rng, n, max_k=3 * n // 2)
                for _ in range(70)
            ]
            budget = 8 * n * n + 64
            expected = [
                RingRotorRouter(
                    n, list(dirs), agents, track_counts=False
                ).run_until_covered(budget)
                for dirs, agents in configurations
            ]
            ptr, cnt = lanes_from_configs(n, configurations)
            covers = BatchRingKernel(n, ptr, cnt).run_until_covered(budget)
            assert [int(c) for c in covers] == expected
            total += len(configurations)
            single = [
                lane for lane, (_, agents) in enumerate(configurations)
                if len(agents) == 1
            ]
            if not single:
                continue
            covers = single_agent_covers(n, ptr[single], cnt[single], budget)
            assert covers.tolist() == [expected[lane] for lane in single]
            for lane in single:
                cover = expected[lane]
                for limit, want in ((cover, cover), (cover - 1, -1)):
                    assert single_agent_covers(
                        n, ptr[lane:lane + 1], cnt[lane:lane + 1], limit
                    ).tolist() == [want]
            singles += len(single)
        assert total >= 200
        assert singles >= 20

    def test_paper_corner_cases(self):
        n, k = 64, 4
        spaced = placement.equally_spaced(n, k)
        cases = [
            (pointers.ring_toward_node(n, 0), placement.all_on_one(k)),
            (pointers.ring_negative(n, spaced), spaced),
            (pointers.ring_positive(n, spaced), spaced),
            (pointers.ring_alternating(n), placement.half_ring(n, k)),
        ]
        budget = 8 * n * n + 64
        ptr, cnt = lanes_from_configs(n, cases)
        covers = BatchRingKernel(n, ptr, cnt).run_until_covered(budget)
        for lane, (dirs, agents) in enumerate(cases):
            ref = RingRotorRouter(n, list(dirs), agents, track_counts=False)
            assert int(covers[lane]) == ref.run_until_covered(budget)

    def test_initially_covered_lane(self):
        n = 5
        ptr, cnt = lanes_from_configs(n, [([1] * n, list(range(n)))])
        kernel = BatchRingKernel(n, ptr, cnt)
        assert int(kernel.cover_rounds[0]) == 0
        assert kernel.run_until_covered(10)[0] == 0

    def test_budget_strict_and_lenient(self):
        n = 32
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0])])
        with pytest.raises(RuntimeError):
            BatchRingKernel(n, ptr, cnt).run_until_covered(3)
        lenient = BatchRingKernel(n, ptr, cnt).run_until_covered(
            3, strict=False
        )
        assert int(lenient[0]) == -1


def _sparse_grid(rng, lanes_per_n):
    """Seeded ``(n, directions, agents)`` lanes for the sparse stepper.

    Every n in 3..64 gets ``lanes_per_n`` lanes with k in 2..n-1,
    cycling through stacked, clustered and spread starts, and through
    two pointer patterns: one direction with a few nodes flipped, and
    random.
    """
    lanes = []
    for n in range(3, 65):
        for i in range(lanes_per_n):
            k = int(rng.integers(2, n)) if n > 3 else 2
            start = int(rng.integers(n))
            if i % 3 == 0:  # stacked
                agents = [start] * k
            elif i % 3 == 1:  # clustered in about 2k/3 nodes
                width = max(1, 2 * k // 3)
                agents = [
                    (start + int(a)) % n
                    for a in rng.integers(0, width, size=k)
                ]
            else:  # spread over k distinct nodes
                agents = [int(a) for a in rng.choice(n, k, replace=False)]
            if i // 3 % 2:
                directions = [int(d) for d in rng.choice((1, -1), size=n)]
            else:
                way = int(rng.choice((1, -1)))
                directions = [way] * n
                for v in rng.integers(0, n, size=int(rng.integers(1, 4))):
                    directions[v] = -way
            lanes.append((n, directions, agents))
    return lanes


def _sparse_covers(lanes, budget):
    """``sparse_ring_covers`` of ``(n, directions, agents)`` lanes, one
    call per ring size, in lane order."""
    covers = [0] * len(lanes)
    by_size: dict[int, list[int]] = {}
    for index, (n, _, _) in enumerate(lanes):
        by_size.setdefault(n, []).append(index)
    for n, indices in by_size.items():
        ptr, cnt = lanes_from_configs(
            n, [(lanes[i][1], lanes[i][2]) for i in indices]
        )
        lane_covers = sparse_ring_covers(n, ptr, cnt, budget(n))
        for i, cover in zip(indices, lane_covers.tolist()):
            covers[i] = cover
    return covers


def _reference_covers(lanes, budget):
    """Cover rounds from the reference engine and from the CSR kernel
    over ``ring_graph(n)``; asserts they agree."""
    engine = [
        RingRotorRouter(
            n, list(directions), agents, track_counts=False
        ).run_until_covered(budget(n))
        for n, directions, agents in lanes
    ]
    graphs: dict[int, object] = {}
    csr = batch_general_covers([
        (
            graphs.setdefault(n, ring_graph(n).to_csr()),
            pointers.ring_pointers_to_ports(directions),
            agents,
            budget(n),
        )
        for n, directions, agents in lanes
    ])
    assert csr.tolist() == engine
    return engine


def _sparse_counters(n, lanes, max_rounds):
    """Covers and ``sparse.*`` counters of one ``sparse_ring_covers``
    call on ``(directions, agents)`` lanes."""
    telemetry = Telemetry()
    previous = set_active(telemetry)
    try:
        covers = sparse_ring_covers(
            n, *lanes_from_configs(n, lanes), max_rounds
        )
    finally:
        set_active(previous)
    return covers.tolist(), telemetry.counters


class TestSparseStepper:
    """``sparse_ring_covers`` against the CSR kernel over the ring graph
    and against :class:`RingRotorRouter`.

    ``_SHORTEST_JUMP`` is patched to 1 where a test needs jumps of
    every length: the stepper then jumps whenever the bounds allow.
    """

    @staticmethod
    def _budget(n):
        return 16 * n * n + 1024

    @pytest.fixture(scope="class")
    def grid(self):
        lanes = _sparse_grid(np.random.default_rng(20261019), 33)
        return lanes, _reference_covers(lanes, self._budget)

    def test_seeded_grid_at_three_budgets(self, grid):
        lanes, expected = grid
        assert len(lanes) >= 2000
        assert _sparse_covers(lanes, self._budget) == expected
        for (n, directions, agents), cover in zip(lanes, expected):
            ptr, cnt = lanes_from_configs(n, [(directions, agents)])
            assert sparse_ring_covers(n, ptr, cnt, cover).tolist() == [
                cover
            ]
            assert sparse_ring_covers(n, ptr, cnt, cover - 1).tolist() == [
                -1
            ]

    def test_seeded_grid_with_jumps_of_every_length(self, grid, monkeypatch):
        monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", 1)
        lanes, expected = grid
        assert _sparse_covers(lanes[::2], self._budget) == expected[::2]

    @staticmethod
    def _approaching(n, a, gap):
        """Agents at a, heading clockwise, and at a + gap, heading
        anticlockwise, with the pointers between them leading each
        agent on up to the middle of the gap."""
        b = a + gap
        directions = [1] * n
        for v in range(a + (gap + 1) // 2, b + 1):
            directions[v] = -1
        return directions, [a, b]

    @pytest.mark.parametrize(
        "gap, bound", [(1, 0), (2, 0), (3, 1), (17, 8), (18, 8), (19, 9)]
    )
    def test_approaching_pair(self, monkeypatch, gap, bound):
        monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", 1)
        n = 48
        directions, agents = self._approaching(n, 5, gap)
        bits = bytearray(d == 1 for d in directions)
        assert _jump_length(n, bits, agents, 10**6) == bound
        lanes = [(n, directions, agents)]
        expected = _reference_covers(lanes, self._budget)
        assert _sparse_covers(lanes, self._budget) == expected
        covers, counters = _sparse_counters(
            n, [(directions, agents)], self._budget(n)
        )
        assert covers == expected
        assert counters["sparse.jumps"] >= (bound > 0)

    def test_follower_at_gap_one(self, monkeypatch):
        monkeypatch.setattr(batch_ring, "_SHORTEST_JUMP", 1)
        n = 20
        directions, agents = [1] * n, [6, 7]
        bits = bytearray(n * [1])
        # The follower may reach the node its leader left, no further.
        assert _jump_length(n, bits, agents, 10**6) == 1
        lanes = [(n, directions, agents)]
        expected = _reference_covers(lanes, self._budget)
        covers, counters = _sparse_counters(
            n, [(directions, agents)], self._budget(n)
        )
        assert covers == expected
        assert counters["sparse.jumps"] >= 1

    @pytest.mark.parametrize("way", [1, -1])
    def test_jump_across_node_zero(self, way):
        # Clockwise: the agent at 30 runs 15 nodes across node 0 to
        # node 5, whose pointer sends it back; the agent at 10 runs 15
        # nodes of its 20-node gap alongside.  The anticlockwise lane is
        # the mirror image.
        n = 40
        directions = [1] * n
        directions[5] = -1
        agents = [30, 10]
        if way < 0:
            directions = [-directions[-v % n] for v in range(n)]
            agents = [-a % n for a in agents]
        bits = bytearray(d == 1 for d in directions)
        assert _jump_length(n, bits, sorted(agents), 10**6) == 15
        lanes = [(n, directions, agents)]
        (cover,) = _reference_covers(lanes, self._budget)
        for budget, want in ((self._budget(n), cover), (cover, cover),
                             (cover - 1, -1), (15, -1)):
            covers, counters = _sparse_counters(
                n, [(directions, agents)], budget
            )
            assert covers == [want]
            assert counters["sparse.jumps"] >= 1

    def test_cover_inside_a_jump_takes_the_longest_fresh_run(self):
        # Three clockwise agents at gaps 10, 11 and 10 on a 31-ring: one
        # 10-round jump covers the ring.  The middle agent reaches
        # unvisited nodes for all 10 rounds, the others for 9 (their
        # last step lands on a start node), so the cover is round 10.
        n = 31
        directions, agents = [1] * n, [0, 10, 21]
        lanes = [(n, directions, agents)]
        assert _reference_covers(lanes, self._budget) == [10]
        covers, counters = _sparse_counters(n, [(directions, agents)], 100)
        assert covers == [10]
        assert (counters["sparse.jumps"], counters["sparse.jump_rounds"]) == (
            1, 10
        )
        assert sparse_ring_covers(
            n, *lanes_from_configs(n, [(directions, agents)]), 9
        ).tolist() == [-1]

    def test_single_agents_and_covered_lanes(self):
        # Chunks can mix k = 1 lanes in (a ring away is a follower gap
        # of n); a lane whose agents occupy every node covers at 0.
        rng = np.random.default_rng(5)
        n = 29
        configurations = [
            _random_configuration(rng, n, max_k=2) for _ in range(40)
        ]
        ptr, cnt = lanes_from_configs(n, configurations)
        budget = self._budget(n)
        assert sparse_ring_covers(n, ptr, cnt, budget).tolist() == (
            single_agent_covers(n, ptr, cnt, budget).tolist()
        )
        ptr, cnt = lanes_from_configs(5, [([1] * 5, [0, 1, 2, 3, 4, 4])])
        assert sparse_ring_covers(5, ptr, cnt, 0).tolist() == [0]

    def test_counters(self):
        n = 64
        lanes = [
            ([1] * n, [0, 32]),
            ([-1] * n, placement.all_on_one(3)),
        ]
        expected = [
            RingRotorRouter(n, list(d), a).run_until_covered(10**6)
            for d, a in lanes
        ]
        budget = max(expected) - 1  # the slower lane truncates
        covers, counters = _sparse_counters(n, lanes, budget)
        assert covers == [min(expected), -1]
        assert counters["sparse.invocations"] == 1
        assert counters["sparse.lanes"] == 2
        assert counters["sparse.rounds"] == budget
        assert counters["sparse.lane_rounds"] == min(expected) + budget
        assert 0 < counters["sparse.jump_rounds"] <= counters[
            "sparse.lane_rounds"
        ]
        assert counters["sparse.jumps"] >= 1
        assert counters["sparse.lanes_covered"] == 1
        assert counters["sparse.lanes_truncated"] == 1

    def test_validates_like_the_kernel(self):
        with pytest.raises(ValueError, match="n >= 3"):
            sparse_ring_covers(2, np.ones((1, 2)), np.ones((1, 2)), 10)
        with pytest.raises(ValueError, match="at least one agent"):
            sparse_ring_covers(4, np.ones((1, 4)), np.zeros((1, 4)), 10)


class TestLimitBehaviour:
    def test_cycles_and_gaps_match_reference(self):
        n, k = 48, 4
        spaced = placement.equally_spaced(n, k)
        cases = [
            (pointers.ring_toward_node(n, 0), placement.all_on_one(k)),
            (pointers.ring_negative(n, spaced), spaced),
            (pointers.ring_positive(n, spaced), spaced),
            (
                pointers.ring_random(n, seed=3),
                placement.random_nodes(n, k, seed=3),
            ),
        ]
        budget = 16 * n * n + 1024
        ptr, cnt = lanes_from_configs(n, cases)
        cycles = batch_limit_cycles(n, ptr, cnt, budget)
        worst, best = batch_return_gaps(n, cycles)
        for lane, (dirs, agents) in enumerate(cases):
            ref = ring_rotor_return_time_exact(n, agents, dirs)
            assert int(cycles.preperiods[lane]) == ref.preperiod
            assert int(cycles.periods[lane]) == ref.period
            assert float(worst[lane]) == ref.worst_gap
            assert float(best[lane]) == ref.best_gap
            # The rows the gap scan starts from: the cycle start.
            engine = RingRotorRouter(n, list(dirs), agents)
            engine.run(ref.preperiod)
            assert cycles.pointers[lane].tolist() == list(engine.ptr)
            assert np.repeat(
                np.arange(n), cycles.counts[lane]
            ).tolist() == engine.positions()

    def test_theorem6_shape(self):
        # Return time is Θ(n/k): worst gap a small multiple of n/k.
        n, k = 60, 4
        agents = placement.all_on_one(k)
        dirs = pointers.ring_toward_node(n, 0)
        ptr, cnt = lanes_from_configs(n, [(dirs, agents)])
        cycles = batch_limit_cycles(n, ptr, cnt, 16 * n * n + 1024)
        worst, _ = batch_return_gaps(n, cycles)
        assert worst[0] <= 4 * n / k

    def test_budget_exhaustion_raises(self):
        n = 16
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0, 3])])
        with pytest.raises(RuntimeError):
            batch_limit_cycles(n, ptr, cnt, max_rounds=2)

    def test_lenient_budget_marks_unresolved_lanes(self):
        n = 16
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0, 3])])
        cycles = batch_limit_cycles(n, ptr, cnt, max_rounds=2, strict=False)
        assert int(cycles.periods[0]) == -1
        assert int(cycles.preperiods[0]) == -1
        with pytest.raises(ValueError):
            batch_return_gaps(n, cycles)

    def test_lenient_mode_resolves_what_fits(self):
        # One instant-cycle lane and one whose search exceeds the budget.
        n, k = 24, 4
        spaced = placement.equally_spaced(n, k)
        easy = (pointers.ring_positive(n, spaced), spaced)
        hard = (pointers.ring_toward_node(n, 0), placement.all_on_one(k))
        ptr, cnt = lanes_from_configs(n, [easy, hard])
        budget = 2 * n  # enough for the spaced patrol, not for worst-case
        cycles = batch_limit_cycles(n, ptr, cnt, budget, strict=False)
        ref = ring_rotor_return_time_exact(n, easy[1], easy[0])
        assert int(cycles.periods[0]) == ref.period
        assert int(cycles.preperiods[0]) == ref.preperiod
        assert int(cycles.periods[1]) == -1


def _family_configurations(n, seed_base=0):
    """One config per (placement, pointer) init family at ring size n."""
    rng = np.random.default_rng(seed_base)
    k_values = (1, 2, 3, 4, 7, n // 2)
    spaced = {k: placement.equally_spaced(n, k) for k in k_values}
    configurations = []
    for k in k_values:
        seed = int(rng.integers(2**31))
        for agents in (
            placement.all_on_one(k),
            spaced[k],
            placement.half_ring(n, k),
            placement.random_nodes(n, k, seed=seed),
            placement.clustered(n, k, max(1, int(k**0.5)), seed=seed),
        ):
            for dirs in (
                pointers.ring_toward_node(n, 0),
                pointers.ring_negative(n, agents),
                pointers.ring_positive(n, agents),
                pointers.ring_alternating(n),
                pointers.ring_random(n, seed=seed),
            ):
                configurations.append((dirs, agents))
    return configurations


class TestRandomizedLimitEquivalence:
    """Acceptance bar: the array-native pipeline is pinned exactly to
    repro.core.limit (find_limit_cycle / return_time_exact) on 100+
    randomized configurations spanning every initialization family."""

    def test_100_plus_family_configurations(self):
        total = 0
        for n, seed_base in ((12, 1), (23, 2), (32, 3)):
            configurations = _family_configurations(n, seed_base)
            budget = 16 * n * n + 1024
            ptr, cnt = lanes_from_configs(n, configurations)
            cycles = batch_limit_cycles(n, ptr, cnt, budget)
            worst, best = batch_return_gaps(n, cycles)
            for lane, (dirs, agents) in enumerate(configurations):
                ref = ring_rotor_return_time_exact(n, agents, dirs)
                assert int(cycles.preperiods[lane]) == ref.preperiod
                assert int(cycles.periods[lane]) == ref.period
                assert float(worst[lane]) == ref.worst_gap
                assert float(best[lane]) == ref.best_gap
            total += len(configurations)
        assert total >= 100

    def test_truncation_lanes_mix_exactly(self):
        """strict=False: lanes inside the budget match the reference
        exactly, lanes beyond it report -1 — in one mixed batch."""
        n = 24
        k = 4
        spaced = placement.equally_spaced(n, k)
        fast = (pointers.ring_positive(n, spaced), spaced)
        slow = (
            pointers.ring_toward_node(n, 0),
            placement.all_on_one(k),
        )
        configurations = [fast, slow, fast, slow]
        budget = 3 * n  # enough for the patrol, not for the worst case
        ptr, cnt = lanes_from_configs(n, configurations)
        cycles = batch_limit_cycles(n, ptr, cnt, budget, strict=False)
        ref = ring_rotor_return_time_exact(n, fast[1], fast[0])
        for lane in (0, 2):
            assert int(cycles.preperiods[lane]) == ref.preperiod
            assert int(cycles.periods[lane]) == ref.period
        for lane in (1, 3):
            assert int(cycles.preperiods[lane]) == -1
            assert int(cycles.periods[lane]) == -1
        # Resolved lanes still produce exact gaps after slicing.
        lanes = np.flatnonzero(cycles.periods > 0)
        worst, best = batch_return_gaps(n, cycles.take(lanes))
        assert [float(w) for w in worst] == [ref.worst_gap] * 2
        assert [float(b) for b in best] == [ref.best_gap] * 2

    def test_wide_count_dtypes_match_reference(self):
        """k > 126 escalates counts to int16: the packed fingerprint
        and the step arithmetic must stay exact across dtypes."""
        n = 24
        for k in (126, 127, 200):
            agents = placement.random_nodes(n, k, seed=k)
            dirs = pointers.ring_random(n, seed=k)
            ptr, cnt = lanes_from_configs(n, [(dirs, agents)])
            assert lane_block(n, ptr, cnt).cnt.dtype == (
                np.int8 if k <= 126 else np.int16
            )
            budget = 16 * n * n + 1024
            cycles = batch_limit_cycles(n, ptr, cnt, budget)
            worst, best = batch_return_gaps(n, cycles)
            ref = ring_rotor_return_time_exact(n, agents, dirs)
            assert int(cycles.preperiods[0]) == ref.preperiod
            assert int(cycles.periods[0]) == ref.period
            assert float(worst[0]) == ref.worst_gap
            assert float(best[0]) == ref.best_gap

    def test_truncated_lanes_resolve_exactly_with_budget(self):
        """The same lanes that truncate resolve exactly once the
        budget allows — truncation is a budget fact, not corruption."""
        n, k = 24, 4
        slow = (pointers.ring_toward_node(n, 0), placement.all_on_one(k))
        ptr, cnt = lanes_from_configs(n, [slow])
        short = batch_limit_cycles(n, ptr, cnt, 3 * n, strict=False)
        assert int(short.periods[0]) == -1
        full = batch_limit_cycles(n, ptr, cnt, 16 * n * n + 1024)
        ref = ring_rotor_return_time_exact(n, slow[1], slow[0])
        assert int(full.preperiods[0]) == ref.preperiod
        assert int(full.periods[0]) == ref.period


class TestFingerprintCollisions:
    """Degenerate fingerprint weights force collisions; the byte-level
    confirmation must still deliver the true minimal period/preperiod."""

    def _reference(self, n, configurations):
        return [
            ring_rotor_return_time_exact(n, agents, dirs)
            for dirs, agents in configurations
        ]

    def _mixed_batch(self, n):
        k = 3
        spaced = placement.equally_spaced(n, k)
        return [
            (pointers.ring_positive(n, spaced), spaced),
            (pointers.ring_toward_node(n, 0), placement.all_on_one(k)),
            (
                pointers.ring_random(n, seed=7),
                placement.random_nodes(n, k, seed=7),
            ),
        ]

    def test_all_zero_weights_collide_every_round(self):
        # Zero weights make every fingerprint 0: every comparison is a
        # "hit" and only the byte-exact confirmation separates states.
        n = 24
        configurations = self._mixed_batch(n)
        words = _fingerprint_words(n)
        zero = np.zeros(words, dtype=np.uint64)
        ptr, cnt = lanes_from_configs(n, configurations)
        cycles = batch_limit_cycles(
            n, ptr, cnt, 16 * n * n + 1024,
            _fingerprint_weights=(zero, zero),
        )
        worst, best = batch_return_gaps(n, cycles)
        for lane, ref in enumerate(self._reference(n, configurations)):
            assert int(cycles.preperiods[lane]) == ref.preperiod
            assert int(cycles.periods[lane]) == ref.period
            assert float(worst[lane]) == ref.worst_gap
            assert float(best[lane]) == ref.best_gap

    def test_count_blind_weights_collide_on_count_changes(self):
        # Zero count weights: configurations differing only in agent
        # counts share a fingerprint — crafted collisions that the
        # confirmation step must refute round after round.
        n = 24
        configurations = self._mixed_batch(n)
        words = _fingerprint_words(n)
        rng = np.random.default_rng(5)
        w_ptr = rng.integers(0, 2**64, size=words, dtype=np.uint64)
        zero = np.zeros(words, dtype=np.uint64)
        ptr, cnt = lanes_from_configs(n, configurations)
        cycles = batch_limit_cycles(
            n, ptr, cnt, 16 * n * n + 1024,
            _fingerprint_weights=(w_ptr, zero),
        )
        for lane, ref in enumerate(self._reference(n, configurations)):
            assert int(cycles.preperiods[lane]) == ref.preperiod
            assert int(cycles.periods[lane]) == ref.period

    def test_weight_shape_validation(self):
        n = 24
        ptr, cnt = lanes_from_configs(
            n, [(pointers.ring_uniform(n), [0, 1])]
        )
        bad = np.zeros(1, dtype=np.uint64)
        good = np.zeros(_fingerprint_words(n), dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_limit_cycles(
                n, ptr, cnt, 100, _fingerprint_weights=(bad, good)
            )


def _mixed_cover_block(n):
    """k = 1 lanes beside k = 16 lanes: the many-agent lanes cover
    long before the lone walkers, so a cover run can drop them."""
    rng = np.random.default_rng(23)
    configurations = []
    for k in (1, 16) * 6:
        dirs = [int(d) for d in rng.choice((1, -1), size=n)]
        configurations.append((dirs, placement.random_nodes(
            n, k, seed=int(rng.integers(2**31))
        )))
    return lanes_from_configs(n, configurations)


class TestCompaction:
    def test_results_invariant_across_ratios(self, monkeypatch):
        n = 32
        configurations = _family_configurations(n, seed_base=9)[:40]
        budget = 16 * n * n + 1024
        ptr, cnt = lanes_from_configs(n, configurations)
        baseline = batch_limit_cycles(n, ptr, cnt, budget)
        mixed_ptr, mixed_cnt = _mixed_cover_block(n)
        covers = BatchRingKernel(n, mixed_ptr, mixed_cnt).run_until_covered(
            budget
        )
        for ratio in (0.0, 0.3, 1.0):
            monkeypatch.setattr(batch_ring, "COMPACT_RATIO", ratio)
            cycles = batch_limit_cycles(n, ptr, cnt, budget)
            assert np.array_equal(cycles.preperiods, baseline.preperiods)
            assert np.array_equal(cycles.periods, baseline.periods)
            kernel = BatchRingKernel(n, mixed_ptr, mixed_cnt)
            assert np.array_equal(kernel.run_until_covered(budget), covers)
        # At ratio 1 the k = 16 lane 1 was dropped after its first
        # window: its state is gone, its cover round is not.
        with pytest.raises(ValueError, match="not held"):
            kernel.positions(1)
        assert int(kernel.cover_rounds[1]) == int(covers[1]) > 0

    def test_ratio_is_read_at_call_time(self, monkeypatch, tmp_path):
        # Patching the module constant reaches both Brent phases and
        # the cover driver: a ratio of 0 never compacts, 1 compacts on
        # every resolution, so the cover run steps fewer rows.
        n = 32
        configurations = _family_configurations(n, seed_base=9)[:40]
        budget = 16 * n * n + 1024
        ptr, cnt = lanes_from_configs(n, configurations)
        mixed_ptr, mixed_cnt = _mixed_cover_block(n)
        compactions, lane_rounds = {}, {}
        for ratio in (0.0, 1.0):
            monkeypatch.setattr(batch_ring, "COMPACT_RATIO", ratio)
            path = str(tmp_path / f"limit-{ratio}.jsonl")
            with trace_session(path):
                batch_limit_cycles(n, ptr, cnt, budget)
                BatchRingKernel(n, mixed_ptr, mixed_cnt).run_until_covered(
                    budget
                )
            counters = load_manifest(path)["counters"]
            compactions[ratio] = counters.get("limit.compactions", 0)
            lane_rounds[ratio] = counters["ring.lane_rounds"]
        assert compactions[0.0] == 0 < compactions[1.0]
        assert lane_rounds[1.0] < lane_rounds[0.0]


class TestPositions:
    def test_multiplicity_and_order(self):
        n = 6
        ptr, cnt = lanes_from_configs(
            n, [(pointers.ring_uniform(n), [4, 0, 2, 0, 0])]
        )
        kernel = BatchRingKernel(n, ptr, cnt)
        assert kernel.positions(0) == [0, 0, 0, 2, 4]


class TestValidation:
    def test_min_ring_size(self):
        with pytest.raises(ValueError):
            BatchRingKernel(2, np.ones((1, 2)), np.ones((1, 2)))

    def test_pointer_values(self):
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.zeros((1, 4)), np.ones((1, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((1, 4)), np.ones((2, 4)))

    def test_agentless_lane(self):
        counts = np.zeros((2, 4))
        counts[0, 0] = 1
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((2, 4)), counts)

    def test_negative_counts(self):
        counts = np.ones((1, 4))
        counts[0, 1] = -1
        with pytest.raises(ValueError):
            BatchRingKernel(4, np.ones((1, 4)), counts)

    def test_negative_rounds(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0])])
        kernel = BatchRingKernel(4, ptr, cnt)
        with pytest.raises(ValueError, match="non-negative"):
            kernel.run(-1)
        assert kernel.round == 0

    def test_limit_budget_must_be_positive(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0])])
        for max_rounds in (0, -3):
            with pytest.raises(ValueError, match="must be positive"):
                batch_limit_cycles(4, ptr, cnt, max_rounds)

    def test_closed_form_takes_single_agent_lanes_only(self):
        ptr, cnt = lanes_from_configs(4, [([1] * 4, [0]), ([1] * 4, [0, 2])])
        with pytest.raises(ValueError, match="exactly one agent"):
            single_agent_covers(4, ptr, cnt, 100)
        with pytest.raises(ValueError, match="n >= 3"):
            single_agent_covers(2, np.ones((1, 2)), np.eye(1, 2), 100)
        assert single_agent_covers(4, ptr[:1], cnt[:1], 100).tolist() == [3]

    def test_dtype_escalation_preserves_totals(self):
        # k > 126 forces int16 lanes; conservation must survive.
        n, k = 8, 500
        ptr, cnt = lanes_from_configs(n, [([1] * n, [0] * k)])
        assert lane_block(n, ptr, cnt).cnt.dtype == np.int16
        kernel = BatchRingKernel(n, ptr, cnt)
        kernel.run(50)
        assert int(kernel.counts_lane(0).sum()) == k

    def test_lanes_from_configs_validation(self):
        with pytest.raises(ValueError):
            lanes_from_configs(4, [])
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1, 1, 1], [0])])  # wrong length
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1] * 4, [])])  # no agents
        with pytest.raises(ValueError):
            lanes_from_configs(4, [([1] * 4, [9])])  # out of range
