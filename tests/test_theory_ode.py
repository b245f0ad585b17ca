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
        with pytest.raises(ValueError):
            integrate_domains([1.0], t_final=100.0, num_samples=1)

    # Samples 57 and 199 of three trajectories, one per boundary mode,
    # as scipy.integrate.solve_ivp(method="RK45", t_eval=...) computed
    # them with the default tolerances; the numpy integrator follows it
    # step for step.
    PINNED = [
        (([1.0] * 8, 1e6, False, False), {
            57: [4.765622162614159, 2.9565065245828777, 2.4018429479905503,
                 2.204085203654139, 2.204085203654139, 2.40184294799055,
                 2.9565065245828777, 4.765622162614159],
            199: [621.9566949954526, 385.5488111338329, 313.08357498577277,
                  287.2503503280451, 287.2503520390014, 313.0835739387537,
                  385.5488115062481, 621.9566949285197],
        }),
        (([1.0] * 5, 65536.0, False, True), {
            57: [3.366172775245207, 2.059638916246548, 1.6350664889591902,
                 1.4485695969343222, 1.372943628076302],
            199: [150.422985619615, 90.90150544289108, 71.59692482608162,
                  63.127617955894735, 59.69554155411826],
        }),
        (([10.0, 30.0, 10.0, 30.0], 1e5, True, False), {
            57: [11.525015535825695, 28.4749844641743, 11.525015535825695,
                 28.4749844641743],
            199: [19.99999990747352, 20.000000092526474, 19.99999990747352,
                  20.000000092526474],
        }),
    ]

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_matches_pinned_rk45_trajectories(self, case):
        (start, t_final, covered, mirror_right), pinned = self.PINNED[case]
        trajectory = integrate_domains(
            start, t_final, covered=covered, mirror_right=mirror_right
        )
        assert trajectory.sizes.shape == (200, len(start))
        assert trajectory.times[-1] == pytest.approx(t_final, rel=1e-12)
        for index, sizes in pinned.items():
            np.testing.assert_allclose(
                trajectory.sizes[index], sizes, rtol=1e-12, atol=0
            )

    def test_growth_fit_needs_samples(self):
        trajectory = integrate_domains([1.0], t_final=10.0, num_samples=3)
        with pytest.raises(ValueError):
            trajectory.growth_exponent(skip_fraction=0.99)


class TestEquilibrium:
    def test_uniform_is_equilibrium(self):
        assert equilibrium_check([7.0, 7.0, 7.0]) == pytest.approx(0.0)

    def test_perturbed_is_not(self):
        assert equilibrium_check([7.0, 9.0, 7.0]) > 0.0


def _run_with_src(script: str) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` importable."""
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
    return proc.stdout.strip()


class TestNoScipy:
    def test_cli_experiments_and_integration_import_no_scipy(self):
        # The package depends on numpy alone: importing the CLI and every
        # experiment module, then integrating a trajectory, loads no
        # scipy module.
        script = (
            "import importlib, sys\n"
            "import repro.cli\n"
            "for module, _ in repro.cli.EXPERIMENTS.values():\n"
            "    importlib.import_module(module)\n"
            "from repro.theory.ode import integrate_domains\n"
            "integrate_domains([1.0] * 4, t_final=1e3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run_with_src(script) == "[]"


class TestNoNetworkx:
    def test_full_size_graph_families_import_no_networkx(self):
        # Building every full-size speedup_graphs family, random-regular
        # included, loads no networkx module.
        script = (
            "import sys\n"
            "from repro.experiments.speedup_graphs import default_families\n"
            "for build in default_families().values():\n"
            "    build()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
        )
        assert _run_with_src(script) == "[]"
