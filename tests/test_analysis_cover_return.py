"""Tests for the cover-time and return-time measurement harnesses."""

import pytest

from repro.analysis.cover_time import (
    ring_rotor_cover_time,
    ring_walk_cover_estimate,
    rotor_cover_time_general,
)
from repro.analysis.return_time import ring_rotor_return_time_exact
from repro.core import placement, pointers
from repro.graphs.families import grid_2d


class TestRingRotorCover:
    def test_deterministic(self):
        a = ring_rotor_cover_time(32, [0, 16], pointers.ring_uniform(32))
        b = ring_rotor_cover_time(32, [0, 16], pointers.ring_uniform(32))
        assert a == b

    def test_known_sweep(self):
        # One agent, all pointers clockwise: covers in n-1 rounds.
        assert ring_rotor_cover_time(20, [0], pointers.ring_uniform(20)) == 19

    def test_budget_respected(self):
        with pytest.raises(RuntimeError):
            ring_rotor_cover_time(
                64, [0], pointers.ring_toward_node(64, 0), max_rounds=10
            )

    def test_best_placement_quadratic_in_gap(self):
        n = 128
        covers = {}
        for k in (2, 4, 8):
            agents = placement.equally_spaced(n, k)
            covers[k] = ring_rotor_cover_time(
                n, agents, pointers.ring_negative(n, agents)
            )
        # Quadrupling agents should cut cover ~16x (quadratic shape).
        assert covers[2] / covers[8] > 8


class TestGeneralCover:
    def test_grid_cover(self):
        g = grid_2d(4, 4)
        cover = rotor_cover_time_general(g, [0], pointers.zero_ports(g))
        assert 0 < cover <= 2 * g.diameter() * g.num_edges + g.num_nodes

class TestWalkCover:
    def test_estimate_reproducible(self):
        a = ring_walk_cover_estimate(24, [0], repetitions=4, base_seed=5)
        b = ring_walk_cover_estimate(24, [0], repetitions=4, base_seed=5)
        assert a.samples == b.samples

class TestReturnTimeHarness:
    def test_exact_normalized_band(self):
        result = ring_rotor_return_time_exact(
            96, placement.equally_spaced(96, 4),
            pointers.ring_negative(96, placement.equally_spaced(96, 4)),
        )
        assert result.n == 96
        assert result.k == 4
        assert 1.0 <= result.normalized <= 3.0
        assert result.period is not None

    def test_theorem6_holds_for_stacked_start(self):
        n, k = 96, 4
        result = ring_rotor_return_time_exact(
            n, placement.all_on_one(k), pointers.ring_toward_node(n, 0)
        )
        assert result.normalized <= 3.0
