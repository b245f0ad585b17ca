"""Tests for the §2.3 continuous-time approximation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.theory.ode import (
    domain_rhs,
    equilibrium_check,
    integrate_domains,
)


class TestRhs:
    def test_uncovered_boundary_terms_vanish(self):
        # Single domain, uncovered: growth 1/nu with no neighbors.
        rhs = domain_rhs(np.array([10.0]), covered=False)
        assert rhs[0] == pytest.approx(0.1)

    def test_covered_equal_sizes_equilibrium(self):
        rhs = domain_rhs(np.array([5.0, 5.0, 5.0, 5.0]), covered=True)
        assert np.allclose(rhs, 0.0)

    def test_covered_bigger_neighbor_shrinks_smaller(self):
        # Cyclic 2-domain system: the small domain grows, the big one
        # shrinks (borders move toward the bigger domain).
        rhs = domain_rhs(np.array([4.0, 16.0]), covered=True)
        assert rhs[0] > 0
        assert rhs[1] < 0

    def test_uncovered_interior_structure(self):
        nu = np.array([8.0, 8.0, 8.0])
        rhs = domain_rhs(nu, covered=False)
        # Ends only lose to one neighbor; the middle loses to two.
        assert rhs[0] == pytest.approx(1 / 8 - 1 / 16)
        assert rhs[1] == pytest.approx(1 / 8 - 2 / 16)
        assert rhs[0] > rhs[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            domain_rhs(np.array([]), covered=False)


class TestIntegration:
    def test_sqrt_growth(self):
        trajectory = integrate_domains([1.0] * 8, t_final=1e6)
        assert trajectory.growth_exponent() == pytest.approx(0.5, abs=0.03)

    def test_sizes_positive_and_increasing_total(self):
        trajectory = integrate_domains([1.0] * 5, t_final=1e4)
        assert np.all(trajectory.sizes > 0)
        total = trajectory.total
        assert total[-1] > total[0]

    def test_profile_decreasing_from_frontier(self):
        # Which end is the frontier depends on orientation; domain 1
        # (index 0) neighbors the unexplored region, as does domain k.
        trajectory = integrate_domains([1.0] * 6, t_final=1e5)
        profile = trajectory.final_profile()
        assert profile[0] == max(profile) or profile[-1] == max(profile)
        assert profile.sum() == pytest.approx(1.0)

    def test_covered_mode_relaxes_to_uniform(self):
        start = [10.0, 30.0, 10.0, 30.0]
        trajectory = integrate_domains(
            start, t_final=1e5, covered=True
        )
        final = trajectory.final_profile()
        assert np.allclose(final, 0.25, atol=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_domains([], t_final=100.0)
        with pytest.raises(ValueError):
            integrate_domains([1.0, -1.0], t_final=100.0)
        with pytest.raises(ValueError):
            integrate_domains([1.0], t_final=0.5)

    def test_growth_fit_needs_samples(self):
        trajectory = integrate_domains([1.0], t_final=10.0, num_samples=3)
        with pytest.raises(ValueError):
            trajectory.growth_exponent(skip_fraction=0.99)


class TestEquilibrium:
    def test_uniform_is_equilibrium(self):
        assert equilibrium_check([7.0, 7.0, 7.0]) == pytest.approx(0.0)

    def test_perturbed_is_not(self):
        assert equilibrium_check([7.0, 9.0, 7.0]) > 0.0


class TestLazyScipy:
    def test_cli_and_experiments_do_not_import_scipy(self):
        # Only integrate_domains needs scipy; importing the CLI or any
        # experiment module must not pay for scipy.integrate.
        script = (
            "import importlib, sys\n"
            "import repro.cli\n"
            "for module, _ in repro.cli.EXPERIMENTS.values():\n"
            "    importlib.import_module(module)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
