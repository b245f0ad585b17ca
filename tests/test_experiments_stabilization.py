"""Tests for the stabilization-time extension experiment."""

from repro.analysis.backend import MeasurementPlan
from repro.experiments.stabilization import (
    battery_instances,
    run_stabilization,
)


def stabilization_battery(n, k, seeds):
    """The exact limit cycle of each initialization of the battery."""
    plan = MeasurementPlan()
    handles = {
        name: plan.rotor_return_exact(n, *cell)
        for name, cell in battery_instances(n, k, seeds).items()
    }
    plan.execute()
    return {name: handle.value for name, handle in handles.items()}


class TestBattery:
    def test_friendly_init_already_stable(self):
        battery = stabilization_battery(64, 4, seeds=())
        result = battery["spaced/positive"]
        assert result.preperiod == 0
        # The period is a whole number of patrol loops (2 * n/k each).
        assert result.period % (2 * (64 // 4)) == 0

    def test_periods_are_patrol_multiples(self):
        n, k = 64, 4
        for name, result in stabilization_battery(n, k, seeds=(0,)).items():
            assert result.period % (n // k) == 0, name

    def test_preperiod_below_quadratic(self):
        n, k = 96, 4
        for name, result in stabilization_battery(n, k, seeds=(0, 1)).items():
            assert result.preperiod <= n * n, name


class TestReport:
    def test_report_structure(self):
        report = run_stabilization(
            MeasurementPlan(), ns=(48, 96), k=4, seeds=(0,)
        )
        table = report.tables[0]
        assert len(table.rows) == 2 * 4  # 2 sizes x 4 initializations
        ratios = table.column("preperiod/n^2")
        assert all(0.0 <= r <= 1.0 for r in ratios)
        normalized_periods = table.column("period/(n/k)")
        assert all(p >= 1.0 for p in normalized_periods)
