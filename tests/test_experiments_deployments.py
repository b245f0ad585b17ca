"""Tests for the Theorem 1 delayed deployment construction."""

import pytest

from repro.experiments.deployments import (
    DeploymentError,
    Theorem1Trace,
    run_theorem1_deployment,
    undelayed_path_cover_time,
)


class TestConstructionRuns:
    @pytest.mark.parametrize(
        "n,k", [(160, 4), (200, 6), (240, 6), (240, 8), (320, 8)]
    )
    def test_deployment_covers_and_sandwiches(self, n, k):
        trace = run_theorem1_deployment(n, k)
        assert trace.cover_round is not None
        tau, total = trace.slow_down_bounds()
        assert 0 < tau <= total
        cover = undelayed_path_cover_time(n, k)
        assert tau <= cover <= total
        # The proof's accounting: full activity dominates Phase A too.
        assert trace.phase_b1_rounds >= trace.phase_a_rounds / 4

    def test_tau_tracks_the_undelayed_cover(self):
        # tau and C share the Θ(n²/log k) shape: their ratio is stable,
        # and tau, a lower bound, never exceeds C.
        ratios = []
        for n in (160, 240, 320):
            tau, _ = run_theorem1_deployment(n, 6).slow_down_bounds()
            ratios.append(tau / undelayed_path_cover_time(n, 6))
        assert all(r <= 1.0 for r in ratios)
        assert max(ratios) / min(ratios) < 2.0

    def test_ladder_strictly_increasing(self):
        trace = run_theorem1_deployment(200, 5)
        ladder = trace.s_ladder
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] <= 200 - 1

    def test_b1_dominates_b2(self):
        # The proof's accounting: B1 ∈ Ω(B2).
        trace = run_theorem1_deployment(300, 6)
        assert trace.phase_b1_rounds > trace.phase_b2_rounds

    def test_positions_always_matched(self):
        trace = run_theorem1_deployment(200, 6)
        position_violations = [
            v for v in trace.invariant_violations if "positions" in v
        ]
        assert position_violations == []

    def test_custom_multiplier(self):
        trace = run_theorem1_deployment(160, 4, multiplier=32.0)
        assert trace.multiplier == 32.0
        assert trace.cover_round is not None


class TestValidation:
    def test_k_above_3_required(self):
        with pytest.raises(ValueError):
            run_theorem1_deployment(100, 3)

    def test_path_length_check(self):
        with pytest.raises(ValueError):
            run_theorem1_deployment(20, 6)

    def test_multiplier_positive(self):
        with pytest.raises(ValueError):
            run_theorem1_deployment(160, 4, multiplier=0.0)

    def test_initial_length_bounds(self):
        with pytest.raises(ValueError):
            run_theorem1_deployment(160, 4, initial_length=200)

    def test_bounds_require_cover(self):
        trace = Theorem1Trace(n=10, k=4, multiplier=1.0)
        with pytest.raises(DeploymentError):
            trace.slow_down_bounds()


class TestUndelayedBaseline:
    def test_quadratic_shape(self):
        import math

        covers = {n: undelayed_path_cover_time(n, 6) for n in (80, 160)}
        ratio = covers[160] / covers[80]
        assert 2.5 <= ratio <= 6.0  # ~4 for a quadratic law

    def test_log_speedup_direction(self):
        # More agents help, but only mildly (log k shape).
        c4 = undelayed_path_cover_time(200, 4)
        c16 = undelayed_path_cover_time(200, 16)
        assert c16 < c4
        assert c16 > c4 / 8  # far from linear speed-up
