"""Tests for speed-up tables and domain statistics harnesses."""

import pytest

from repro.analysis.domains_stats import (
    border_type_census,
    final_profile_vs_lemma13,
    lemma12_adjacent_difference,
    trace_domains,
)
from repro.analysis.speedup import (
    TABLE1_SHAPES,
    best_matching_shape,
    measure_speedup,
    shape_linear,
    shape_log,
    shape_quadratic,
    shape_quadratic_over_log2,
)
from repro.core import placement, pointers


class TestSpeedupTable:
    def test_measures_against_baseline(self):
        def cover(n, k):
            return n * n / (k * k)  # exactly quadratic speed-up

        table = measure_speedup(cover, 100, [2, 4, 8])
        assert table.speedups() == [4.0, 16.0, 64.0]
        assert table.shape_flatness(shape_quadratic) == pytest.approx(1.0)

    def test_best_matching_shape(self):
        def cover(n, k):
            import math

            return n * n / max(1.0, math.log(k))

        table = measure_speedup(cover, 100, [2, 4, 8, 16])
        name, flat = best_matching_shape(table, TABLE1_SHAPES)
        assert name == "log k"
        assert flat == pytest.approx(1.0)

    def test_shapes(self):
        assert shape_log(1) == 1.0
        assert shape_linear(5) == 5.0
        assert shape_quadratic(3) == 9.0
        assert shape_quadratic_over_log2(1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_speedup(lambda n, k: 10.0, 10, [])
        with pytest.raises(ValueError):
            measure_speedup(lambda n, k: 0.0, 10, [2])


class TestDomainTraces:
    def test_trace_samples(self):
        n, k = 64, 4
        agents = placement.equally_spaced(n, k)
        trace = trace_domains(
            n, agents, pointers.ring_negative(n, agents),
            total_rounds=300, sample_every=50,
        )
        assert trace.rounds
        assert len(trace.snapshots) == len(trace.rounds)
        assert all(len(s.domains) == k for s in trace.snapshots)

    def test_growth_exponent_half_from_stack(self):
        n, k = 256, 4
        trace = trace_domains(
            n,
            placement.all_on_one(k),
            pointers.ring_toward_node(n, 0),
            total_rounds=n * n // 2,
            sample_every=n // 4,
            stop_at_cover=True,
        )
        assert trace.growth_exponent() == pytest.approx(0.5, abs=0.1)

    def test_lemma12_small_difference(self):
        n, k = 72, 6
        agents = [0, 2, 4, 30, 32, 50]  # deliberately lopsided
        diff = lemma12_adjacent_difference(
            n, agents, pointers.ring_negative(n, agents), rounds=50 * n
        )
        assert diff <= 10

    def test_lemma12_requires_coverage(self):
        n = 64
        with pytest.raises(RuntimeError):
            lemma12_adjacent_difference(
                n, [0], pointers.ring_toward_node(n, 0), rounds=10
            )

    def test_border_census_nonempty(self):
        n, k = 64, 4
        agents = placement.equally_spaced(n, k)
        (census,) = border_type_census(
            n, [(agents, pointers.ring_negative(n, agents))],
            burn_in=10 * n, observation_rounds=4 * n,
        )
        assert sum(census.values()) > 0

    def test_profile_matches_lemma13(self):
        import numpy as np

        measured, predicted = final_profile_vs_lemma13(
            300, 6, rounds_budget=300 * 300
        )
        assert measured.shape == predicted.shape
        correlation = float(np.corrcoef(measured, predicted)[0, 1])
        assert correlation > 0.95

    def test_profile_requires_k_above_3(self):
        with pytest.raises(ValueError):
            final_profile_vs_lemma13(100, 3, rounds_budget=100)

    def test_profile_requires_a_positive_budget(self):
        for budget in (-5, 0):
            with pytest.raises(ValueError):
                final_profile_vs_lemma13(100, 8, rounds_budget=budget)
        # One round is a valid budget, too short for the agents to spread.
        with pytest.raises(RuntimeError):
            final_profile_vs_lemma13(100, 8, rounds_budget=1)

    def test_profile_requires_the_frontier_to_pass_node_k(self):
        # The run stops with at most max(2, n // 50) nodes unvisited, its
        # frontier on node n - 3 here: past node k = 8 from n = 12 on.
        for n in (5, 9, 11):
            with pytest.raises(ValueError):
                final_profile_vs_lemma13(n, 8, rounds_budget=n * n)
        measured, _ = final_profile_vs_lemma13(12, 8, rounds_budget=144)
        assert measured.sum() == pytest.approx(1.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            trace_domains(32, [0], pointers.ring_uniform(32), 0, 1)

    def test_trace_counts_agents_of_a_one_shot_iterable(self):
        trace = trace_domains(
            32, iter([0, 0, 5]), pointers.ring_uniform(32), 100, 10
        )
        assert trace.k == 3
        assert trace.rounds == list(range(10, 101, 10))

    @pytest.mark.parametrize(
        "n, agents, directions",
        [
            (2, [0], [1, 1]),          # ring too small
            (8, [0], [1] * 7),         # pointer list too short
            (8, [0], [1] * 7 + [0]),   # a pointer other than +-1
            (8, [], [1] * 8),          # no agent
            (8, [8], [1] * 8),         # an agent off the ring
            (8, [0], [300] + [1] * 7), # a pointer no int8 holds
            (8, [0], ["1"] * 8),       # pointers that are not numbers
        ],
    )
    def test_malformed_rings_rejected(self, n, agents, directions):
        with pytest.raises(ValueError):
            trace_domains(n, agents, directions, 10, 1)
        with pytest.raises(ValueError):
            lemma12_adjacent_difference(n, agents, directions, 10)

    @pytest.mark.parametrize("n, agents", [(64, list(range(64))), (64, [0])])
    def test_lemma12_rejects_negative_rounds(self, n, agents):
        # Covered (an agent on every node) or not, a negative round count
        # is refused before any step.
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            lemma12_adjacent_difference(n, agents, [1] * n, -5)
        assert lemma12_adjacent_difference(n, list(range(n)), [1] * n, 0) == 0
