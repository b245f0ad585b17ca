"""Integration tests of the paper's headline claims.

Each test crosses module boundaries (engines + placements + pointers +
analysis) and asserts a Table 1 fact end to end.  The first classes
check small rings on the serial engines; from ``TestTable1RotorWorst``
on, each claim is checked across a grid on the production kernels,
with the instances and seed derivations the experiments use.
"""

import math

import pytest

from repro.analysis import remote
from repro.analysis.backend import MeasurementPlan
from repro.analysis.cover_time import (
    ring_rotor_cover_time,
    ring_walk_cover_estimate,
)
from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.analysis.scaling import fit_power_law, flatness, normalized
from repro.analysis.speedup import (
    TABLE1_SHAPES,
    best_matching_shape,
    measure_speedup,
)
from repro.core import placement, pointers
from repro.experiments import speedup_graphs, stabilization, theorem2, theorem4
from repro.sweep.spec import general_instance
from repro.theory import bounds
from repro.util.rng import derive_seed
from repro.util.stats import summarize


class TestCoverTimeSpectrum:
    """The full worst-to-best spectrum on one ring."""

    N = 256

    def cover(self, agents, directions):
        return ring_rotor_cover_time(self.N, agents, directions)

    def test_spectrum_ordering(self):
        n, k = self.N, 8
        worst = self.cover(
            placement.all_on_one(k), pointers.ring_toward_node(n, 0)
        )
        spaced = placement.equally_spaced(n, k)
        best_adversarial = self.cover(spaced, pointers.ring_negative(n, spaced))
        best_friendly = self.cover(spaced, pointers.ring_positive(n, spaced))
        # Θ(n²/log k) >> Θ(n²/k²) >> Θ(n/k).
        assert worst > 4 * best_adversarial
        assert best_adversarial > 4 * best_friendly
        # And the absolute shapes.
        assert worst == pytest.approx(
            0.2 * bounds.rotor_cover_worst(n, k), rel=0.5
        )
        assert best_adversarial == pytest.approx(
            0.5 * bounds.rotor_cover_best(n, k), rel=0.3
        )

    def test_single_agent_matches_both_bounds(self):
        # k = 1: worst and best shapes coincide at Θ(n²).
        n = self.N
        worst = self.cover([0], pointers.ring_toward_node(n, 0))
        assert n * n / 4 <= worst <= n * n

    def test_worst_case_speedup_is_logarithmic(self):
        n = self.N
        covers = {
            k: self.cover(
                placement.all_on_one(k), pointers.ring_toward_node(n, 0)
            )
            for k in (1, 4, 16, 64)
        }
        speedups = {k: covers[1] / covers[k] for k in (4, 16, 64)}
        # Quadrupling k adds a roughly constant increment (log shape),
        # far from multiplying the speed-up by 4.
        inc1 = speedups[16] - speedups[4]
        inc2 = speedups[64] - speedups[16]
        assert speedups[64] < 16
        assert 0.3 < inc2 / inc1 < 3.0

    def test_best_case_speedup_is_quadratic(self):
        n = self.N

        def best(k):
            spaced = placement.equally_spaced(n, k)
            return self.cover(spaced, pointers.ring_negative(n, spaced))

        covers = {k: best(k) for k in (1, 2, 4, 8)}
        for k in (2, 4, 8):
            speedup = covers[1] / covers[k]
            assert speedup == pytest.approx(k * k, rel=0.35)


class TestModelComparison:
    """Rotor-router vs random walks, same placements."""

    def test_worst_placement_both_models_agree(self):
        n, k = 192, 8
        rotor = ring_rotor_cover_time(
            n, placement.all_on_one(k), pointers.ring_toward_node(n, 0)
        )
        walk = ring_walk_cover_estimate(
            n, placement.all_on_one(k), repetitions=8, base_seed=3
        ).mean
        # Same Θ(n²/log k): within a small constant of each other.
        assert 0.4 <= rotor / walk <= 2.5

    def test_best_placement_rotor_wins_by_polylog(self):
        n, k = 256, 8
        spaced = placement.equally_spaced(n, k)
        rotor = ring_rotor_cover_time(
            n, spaced, pointers.ring_negative(n, spaced)
        )
        walk = ring_walk_cover_estimate(
            n, spaced, repetitions=8, base_seed=4
        ).mean
        ratio = walk / rotor
        # Theorem 5: the gap is Θ(log²k) = 4.3 at k = 8.
        assert 1.5 <= ratio <= 12.0

    def test_return_time_both_models_fair_share(self):
        n, k = 128, 4
        rotor = ring_rotor_return_time_exact(
            n, placement.all_on_one(k), pointers.ring_toward_node(n, 0)
        )
        assert rotor.worst_gap == 2 * n / k  # exact on the ring
        from repro.randomwalk.visits import ring_walk_gap_statistics

        walk = ring_walk_gap_statistics(
            n, k, node=0, observation_rounds=800 * n, burn_in=4 * n, seed=5
        )
        assert walk.mean == pytest.approx(n / k, rel=0.25)
        assert walk.maximum > rotor.worst_gap  # no deterministic ceiling


class TestRegimeAnnotations:
    def test_paper_regime_max_k_consistent_with_placement_check(self):
        n = 2 ** 23
        k = bounds.paper_regime_max_k(n)
        assert placement.paper_regime_ok(n, k)
        assert not placement.paper_regime_ok(n, k + 1)

    def test_shapes_consistent_with_theorem_statements(self):
        n = 10 ** 4
        for k in (2, 8, 32):
            assert bounds.rotor_cover_worst(n, k) == pytest.approx(
                n * n / math.log(k)
            )
            assert bounds.rotor_cover_best(n, k) * k * k == pytest.approx(
                n * n
            )
            assert bounds.rotor_return_time(n, k) * k == pytest.approx(n)


def measured(schedule):
    """Execute the cells ``schedule(plan)`` requests; return its result
    with each handle, however nested in lists, tuples and dicts, resolved."""
    plan = MeasurementPlan()
    handles = schedule(plan)
    plan.execute()

    def resolve(item):
        if isinstance(item, dict):
            return {key: resolve(value) for key, value in item.items()}
        if isinstance(item, (list, tuple)):
            return type(item)(map(resolve, item))
        return item.value

    return resolve(handles)


def _instance(n, k, best=False):
    """Table 1's rotor initialization: all agents on node 0 with pointers
    toward it, or (best) equally spaced agents with negative pointers."""
    if best:
        spaced = placement.equally_spaced(n, k)
        return spaced, pointers.ring_negative(n, spaced)
    return placement.all_on_one(k), pointers.ring_toward_node(n, 0)


def _rotor(plan, n, k, best=False):
    return plan.rotor_cover(n, *_instance(n, k, best))


def _walks(plan, n, k, repetitions, best=False):
    """k walks from the rotor cell's placement, seeded as Table 1 seeds
    its worst or best walk column."""
    column = "t1-walk-best" if best else "t1-walk-worst"
    return plan.walk_cover(
        n, _instance(n, k, best)[0], repetitions,
        base_seed=derive_seed(0, column, n, k),
    )


class TestTable1RotorWorst:
    """Rotor-router, all agents on one node: Θ(n²/log k)."""

    def test_worst_cover_k_sweep(self):
        n, ks = 384, (2, 4, 8, 16, 32)
        covers = measured(lambda plan: [_rotor(plan, n, k) for k in ks])
        norm = normalized(covers, [bounds.rotor_cover_worst(n, k) for k in ks])
        # Paper shape: flat within a modest constant across a 16x range of k.
        assert flatness(norm) < 2.0

    def test_worst_cover_quadratic_in_n(self):
        ns = (96, 192, 384)
        covers = measured(lambda plan: [_rotor(plan, n, 8) for n in ns])
        assert 1.8 <= fit_power_law(ns, covers).exponent <= 2.2


class TestTable1RotorBest:
    """Rotor-router, equally spaced agents, negative pointers: Θ(n²/k²)."""

    def test_best_cover_k_sweep(self):
        n, ks = 512, (2, 4, 8, 16, 32)
        covers = measured(lambda plan: [_rotor(plan, n, k, True) for k in ks])
        norm = normalized(covers, [bounds.rotor_cover_best(n, k) for k in ks])
        assert flatness(norm) < 1.5  # extremely clean in practice (~0.5 each)

    def test_best_beats_worst_by_k2_over_logk(self):
        """Cross-check Table 1's rows against each other."""
        worst, best = measured(
            lambda plan: [_rotor(plan, 512, 16), _rotor(plan, 512, 16, True)]
        )
        # Θ(k²/log k) ≈ 92 at k=16; accept a generous band.
        assert worst / best > 10


class TestTable1WalkWorst:
    """k random walks from one node: Θ(n²/log k); the speed-up over one
    walk is logarithmic (Alon et al. [4])."""

    def test_walk_worst_k_sweep(self):
        n, ks = 256, (4, 8, 16, 32)
        covers = measured(lambda plan: [_walks(plan, n, k, 8) for k in ks])
        expected = [bounds.walk_cover_worst(n, k) for k in ks]
        norm = normalized([cover.mean for cover in covers], expected)
        assert flatness(norm) < 2.5  # stochastic: a looser band than rotor

    def test_walk_worst_speedup_is_logarithmic(self):
        single, many = measured(
            lambda plan: [_walks(plan, 256, 1, 8), _walks(plan, 256, 32, 8)]
        )
        # log(32) ~ 3.5 with a constant of a few: the speed-up must be
        # mild and nowhere near linear (32x).
        assert 1.5 < single.mean / many.mean < 18.0


class TestTable1WalkBest:
    """Equally spaced k walks: Θ((n/k)² log² k) (Theorem 5); the
    rotor-router beats them from the same placement."""

    def test_walk_best_k_sweep(self):
        n, ks = 512, (4, 8, 16)
        covers = measured(
            lambda plan: [_walks(plan, n, k, 10, True) for k in ks]
        )
        expected = [bounds.walk_cover_best(n, k) for k in ks]
        norm = normalized([cover.mean for cover in covers], expected)
        # The log²k factor emerges slowly; at these scales allow a wide
        # band but still far tighter than the (n/k)²-only normalization,
        # which would drift by log²16/log²4 ≈ 4x.
        assert flatness(norm) < 3.5

    def test_rotor_beats_walks_in_best_case(self):
        pairs = measured(lambda plan: [
            (_rotor(plan, 512, k, True), _walks(plan, 512, k, 10, True))
            for k in (4, 8, 16)
        ])
        # Table 1 ordering: the deterministic system wins for every k >= 4.
        assert all(walk.mean / rotor > 1.0 for rotor, walk in pairs)


class TestTable1ReturnTime:
    """Return time Θ(n/k) (Theorem 6): the rotor-router's exact worst gap
    is ~2 x n/k for every initialization; the walks' mean gap is n/k,
    but not their maximum (no deterministic ceiling)."""

    def test_rotor_return_time_band(self):
        n = 192
        gaps = measured(lambda plan: {
            k: [
                plan.rotor_return_exact(n, *_instance(n, k, best))
                for best in (False, True)
            ]
            for k in (2, 4, 8, 16)
        })
        for k, (worst_init, spaced_init) in gaps.items():
            a, b = worst_init.normalized, spaced_init.normalized
            assert 1.0 <= a <= 3.0, f"worst-init gap*k/n out of band at k={k}"
            assert 1.0 <= b <= 3.0, f"spaced-init gap*k/n out of band at k={k}"

    def test_walk_gaps_mean_fair_but_unbounded(self):
        n, k = 192, 8
        stats = measured(lambda plan: plan.walk_gaps(
            n, k, node=0, observation_rounds=600 * n, burn_in=4 * n, seed=0
        ))
        assert abs(stats.mean - n / k) / (n / k) < 0.35
        assert stats.maximum > 5 * (n / k)  # the heavy tail


class TestTheorem2AnyInit:
    """No initialization beats the Theorem 1 adversary by more than a
    constant: cover is O(n²/log k) universally."""

    def test_battery_never_beats_all_on_one_materially(self):
        n, seeds = 256, (0, 1, 2, 3)
        results = measured(lambda plan: {
            k: (
                [
                    plan.rotor_cover(n, agents, directions)
                    for agents, directions in theorem2.battery_instances(
                        n, k, seeds
                    ).values()
                ],
                _rotor(plan, n, k),
            )
            for k in (4, 8, 16)
        })
        for k, (battery, reference) in results.items():
            assert max(battery) / reference <= 1.5, (
                f"an initialization beat the Theorem 1 adversary at k={k}"
            )


class TestTheorem4LowerBound:
    """For every placement, negative pointers force Ω((n/k)²), and remote
    vertices far from all agents abound (Definition 2 / Lemma 15)."""

    def test_lower_bound_constant_over_placements(self):
        n = 512
        cells = [
            (k, name, agents)
            for k in (4, 8)
            for name, agents in theorem4.placements_battery(
                n, k, seeds=(0, 1)
            ).items()
        ]
        covers = measured(lambda plan: [
            plan.rotor_cover(n, agents, pointers.ring_negative(n, agents))
            for _, _, agents in cells
        ])
        for (k, name, agents), cover in zip(cells, covers):
            # The Ω((n/k)²) lower bound: a placement-independent constant.
            assert cover / bounds.rotor_cover_best(n, k) >= 0.2, (
                f"lower bound violated for k={k}/{name}"
            )
            # Lemma 15 abundance (with finite-n slack).
            assert remote.count_remote_vertices(n, agents) >= 0.6 * n
            # Theorem 4's anchor vertex exists.
            far = remote.remote_vertices_far_from_agents(
                n, agents, max(1, n // (9 * k))
            )
            assert len(far) >= 1


class TestStabilization:
    """Time-to-limit-cycle, which Theorem 6 waits out: the worst
    preperiod stays below n², the period is a small multiple of n/k,
    and friendly initializations stabilize instantly."""

    def test_stabilization_quadratic_ceiling(self):
        k, ns = 4, (64, 128)
        results = measured(lambda plan: {
            n: {
                name: plan.rotor_return_exact(n, *cell)
                for name, cell in stabilization.battery_instances(
                    n, k, seeds=(0, 1)
                ).items()
            }
            for n in ns
        })
        for n, battery in results.items():
            for name, result in battery.items():
                assert result.preperiod <= n * n, f"{name} at n={n}"
                # Period is a small multiple of the patrol loop n/k.
                assert result.period % (n // k) == 0 or result.period % n == 0
                assert result.period <= 4 * n
            # Positive (friendly) pointers: already in the limit cycle.
            assert battery["spaced/positive"].preperiod == 0
        # Scaling: worst preperiod grows ~4x when n doubles.
        worst = [max(r.preperiod for r in results[n].values()) for n in ns]
        assert 2.0 <= worst[1] / max(worst[0], 1) <= 8.0


class TestSpeedupGeneralGraphs:
    """Yanovski et al.'s experiment: near-linear speed-up on
    well-connected graphs, and monotonicity (agents never hurt)."""

    def test_speedup_families(self):
        # The well-connected families of the default grid; near-linear
        # speed-up is not expected of a lollipop.
        ks, families = (2, 4, 8), speedup_graphs.default_families()
        graphs = {
            name: families[name]() for name in ("torus", "hypercube", "clique")
        }
        # 16nm rounds bound the default budget 16Dm + 64 (diameter D < n),
        # so every cover is unchanged, without the all-pairs BFS that
        # computing D costs on 1024 nodes.
        covers = measured(lambda plan: {
            (name, k): [
                plan.rotor_cover_general(
                    graph, *general_instance(graph, k, seed),
                    max_rounds=16 * graph.num_nodes * graph.num_edges,
                )
                for seed in (0, 1)
            ]
            for name, graph in graphs.items()
            for k in (1, *ks)
        })
        for name, graph in graphs.items():
            table = measure_speedup(
                lambda _n, k: summarize(covers[name, k]).mean,
                graph.num_nodes,
                list(ks),
            )
            speedups = table.speedups()
            # [27]'s observations: monotone gains, near-linear on these
            # well-connected graphs.
            assert all(s >= 0.9 for s in speedups)
            assert speedups[-1] >= 0.45 * ks[-1], (
                f"{name}: far from the near-linear regime"
            )
            shape, _ = best_matching_shape(table, TABLE1_SHAPES)
            assert shape in ("k", "k^2/log^2 k"), name

    def test_ring_speedup_is_sublinear_for_stacked_start(self):
        """The contrast the paper proves: the ring's worst case gains only
        log k, unlike the near-linear general-graph behaviour."""
        ks = (2, 4, 8)
        base, *covers = measured(
            lambda plan: [_rotor(plan, 256, k) for k in (1, *ks)]
        )
        assert base / covers[-1] < 0.75 * ks[-1]  # clearly sublinear
