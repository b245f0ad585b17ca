"""Integration tests: every experiment module produces a sane report.

Small parameters keep the suite fast; the assertions check structure
plus the coarse paper-shape facts each experiment exists to show.
"""

import pytest

from repro.experiments.continuous import (
    run_equilibrium_table,
    run_growth_comparison,
)
from repro.experiments.figures import run_figure1, run_figure2
from repro.experiments.harness import Report
from repro.experiments.table1 import (
    run_cover_table,
    run_return_time_table,
    run_table1,
)
from repro.experiments.theorem2 import run_theorem2
from repro.experiments.theorem3 import run_theorem3, spaced_cover
from repro.experiments.theorem4 import run_theorem4
from repro.experiments.theorem5 import run_theorem5
from repro.experiments.theorem6 import run_theorem6
from repro.experiments.theorem1 import run_k_sweep, run_n_sweep
from repro.util.tables import Table


class TestHarness:
    def test_report_render(self):
        report = Report(title="t", claim="c")
        table = Table(columns=["a"])
        table.add_row(1)
        report.add_table(table)
        report.add_note("n")
        text = report.render()
        assert "== t ==" in text
        assert "paper: c" in text
        assert "note: n" in text

    def test_save_csv(self, tmp_path):
        report = Report(title="demo run")
        table = Table(columns=["x", "y"], caption="data")
        table.add_row(1, 2)
        report.add_table(table)
        paths = report.save_csv(str(tmp_path))
        assert len(paths) == 1
        content = open(paths[0]).read()
        assert "x,y" in content
        assert "1,2" in content

    def test_save_csv_disambiguates_colliding_slugs(self, tmp_path):
        # Regression: captions that slugify identically used to silently
        # overwrite each other's CSV file.
        report = Report(title="collide")
        first = Table(columns=["a"], caption="My Data!")
        first.add_row(1)
        second = Table(columns=["b"], caption="my data")
        second.add_row(2)
        report.add_table(first)
        report.add_table(second)
        paths = report.save_csv(str(tmp_path))
        assert len(paths) == len(set(paths)) == 2
        assert "a" in open(paths[0]).read()
        assert "b" in open(paths[1]).read()

    def test_save_csv_suffix_cannot_shadow_natural_slug(self, tmp_path):
        # 'gaps', 'gaps', 'gaps t1' -> the disambiguated second table
        # ('gaps-t1') must not overwrite the third's natural slug.
        report = Report(title="shadow")
        for caption, value in (("gaps", 1), ("gaps", 2), ("gaps t1", 3)):
            table = Table(columns=["v"], caption=caption)
            table.add_row(value)
            report.add_table(table)
        paths = report.save_csv(str(tmp_path))
        assert len(set(paths)) == 3
        contents = [open(path).read() for path in paths]
        for value in ("1", "2", "3"):
            assert any(value in text for text in contents)

    def test_save_csv_disambiguates_empty_captions(self, tmp_path):
        report = Report(title="anon")
        for value in (1, 2):
            table = Table(columns=["v"])  # no caption at all
            table.add_row(value)
            report.add_table(table)
        paths = report.save_csv(str(tmp_path))
        assert len(set(paths)) == 2


class TestTable1:
    def test_cover_table_structure(self):
        # k >= 4: at k = 2 the log²k factor is < 1 and the asymptotic
        # ordering genuinely does not apply.
        table = run_cover_table(96, ks=(4, 8), repetitions=3)
        assert len(table.rows) == 2
        # Rotor-router best case beats the walks' best case.
        rr_best = table.column("RR best")
        rw_best = table.column("RW best")
        assert all(rr <= rw for rr, rw in zip(rr_best, rw_best))

    def test_return_table_normalized_band(self):
        table = run_return_time_table(64, ks=(2, 4), walk_window_factor=80)
        for value in table.column("RR gap*k/n"):
            assert 1.0 <= value <= 3.0

    def test_full_report(self):
        report = run_table1(n=96, ks=(2, 4), repetitions=2, return_n=64)
        assert len(report.tables) == 2
        assert "Table 1" in report.render()


class TestTheoremReports:
    def test_theorem1_k_sweep_flatish(self):
        table = run_k_sweep(128, ks=(2, 4, 8))
        normalized = table.column("C*log k/n^2")
        assert max(normalized) / min(normalized) < 3.0

    def test_theorem1_n_sweep_quadratic(self):
        table = run_n_sweep((64, 128, 256), k=4)
        assert "n^" in table.caption
        exponent = float(table.caption.split("n^")[-1])
        assert 1.7 <= exponent <= 2.3

    def test_theorem2_battery_bounded(self):
        report = run_theorem2(n=96, ks=(4,), seeds=(0, 1))
        ratios = report.tables[0].column("battery/all-on-one")
        assert all(r <= 1.6 for r in ratios)

    def test_theorem3_normalized_bounded(self):
        report = run_theorem3(n=128, ks=(2, 4, 8), random_seeds=(0,))
        normalized = report.tables[0].column("worst*k^2/n^2")
        assert all(0.05 <= v <= 3.0 for v in normalized)
        assert max(normalized) / min(normalized) < 4.0

    def test_theorem3_pointer_families(self):
        assert spaced_cover(64, 4, "positive") <= spaced_cover(
            64, 4, "negative"
        )

    def test_theorem4_lower_bound_constant(self):
        report = run_theorem4(n=256, ks=(4,), seeds=(0,))
        normalized = report.tables[0].column("C*k^2/n^2")
        assert all(v >= 0.1 for v in normalized)

    def test_theorem5_ordering(self):
        report = run_theorem5(n=128, ks=(4, 8), repetitions=4)
        ratios = report.tables[0].column("RW/RR")
        assert all(r > 1.0 for r in ratios)  # walks lose the best case

    def test_theorem6_band(self):
        report = run_theorem6(n=64, ks=(2, 4), seeds=(0,))
        gaps = report.tables[0].column("gap*k/n")
        assert all(1.0 <= g <= 3.0 for g in gaps)


class TestBackendsAgree:
    """The batch backend renders the exact reports of the serial one."""

    def test_table1_identical_across_backends(self):
        batch = run_table1(n=64, ks=(2, 4), repetitions=2, return_n=48)
        reference = run_table1(
            n=64, ks=(2, 4), repetitions=2, return_n=48, backend="reference"
        )
        assert batch.render() == reference.render()
        assert batch.stats.backend == "batch"
        assert reference.stats.backend == "reference"

    def test_theorem6_identical_across_backends(self):
        batch = run_theorem6(n=48, ks=(2, 4), seeds=(0,))
        reference = run_theorem6(n=48, ks=(2, 4), seeds=(0,), backend="reference")
        assert batch.render() == reference.render()

    def test_theorem5_identical_across_backends(self):
        batch = run_theorem5(n=64, ks=(2, 4), repetitions=3)
        reference = run_theorem5(n=64, ks=(2, 4), repetitions=3,
                                 backend="reference")
        assert batch.render() == reference.render()

    def test_stabilization_identical_across_backends(self):
        from repro.experiments.stabilization import run_stabilization

        batch = run_stabilization(ns=(32, 48), k=4, seeds=(0,))
        reference = run_stabilization(
            ns=(32, 48), k=4, seeds=(0,), backend="reference"
        )
        assert batch.render() == reference.render()

    def test_speedup_graphs_identical_across_backends(self):
        from repro.experiments.speedup_graphs import run_speedup_graphs
        from repro.graphs import ring_graph

        families = {"ring": lambda: ring_graph(32)}
        batch = run_speedup_graphs(ks=(2, 4), seeds=(0,), families=families)
        reference = run_speedup_graphs(
            ks=(2, 4), seeds=(0,), families=families, backend="reference"
        )
        assert batch.render() == reference.render()

    def test_speedup_graphs_quick_grid_identical_across_backends(self):
        # Pins the CSR-batched kernel (mixed families in one chunk)
        # against the reference engine at report granularity.
        from repro.experiments.speedup_graphs import run_speedup_graphs

        batch = run_speedup_graphs(quick=True)
        reference = run_speedup_graphs(quick=True, backend="reference")
        assert batch.render() == reference.render()
        assert batch.stats.computed == reference.stats.computed


class TestFiguresAndContinuous:
    def test_figure1_census(self):
        report = run_figure1(n=64, ks=(4,), burn_in_factor=15,
                             observation_factor=5)
        table = report.tables[0]
        totals = [
            v + e + t
            for v, e, t in zip(
                table.column("vertex-type"),
                table.column("edge-type"),
                table.column("transient"),
            )
        ]
        assert all(total > 0 for total in totals)
        transients = table.column("transient %")
        assert all(pct <= 5.0 for pct in transients)

    def test_figure2_trace(self):
        report = run_figure2(n=160, k=4)
        ladder = report.tables[0]
        assert len(ladder.rows) >= 1
        phases = report.tables[1]
        assert len(phases.rows) == 3

    def test_growth_comparison(self):
        table = run_growth_comparison(n=192, k=4)
        exponents = table.column("growth exponent")
        assert all(abs(e - 0.5) < 0.12 for e in exponents)

    def test_equilibrium_table(self):
        table = run_equilibrium_table(ks=(4, 8))
        drift_equal = table.column("|drift| equal sizes")
        drift_perturbed = table.column("|drift| perturbed")
        assert all(d == pytest.approx(0.0, abs=1e-12) for d in drift_equal)
        assert all(d > 0 for d in drift_perturbed)
