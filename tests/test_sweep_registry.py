"""Registered scenarios and the `python -m repro sweep` subcommand."""

import pytest

from repro.cli import main
from repro.sweep import registry, run_sweep
from repro.sweep.spec import GeneralScenarioSpec, ScenarioSpec


class TestRegistry:
    def test_expected_scenarios_registered(self):
        names = registry.scenario_names()
        for required in (
            "table1",
            "table1_full",
            "speedup",
            "stabilization",
            "cover_scaling",
        ):
            assert required in names

    def test_every_scenario_builds_both_sizes(self):
        for name in registry.scenario_names():
            for quick in (False, True):
                spec = registry.scenario(name, quick=quick)
                assert isinstance(spec, (ScenarioSpec, GeneralScenarioSpec))
                assert spec.num_configs > 0
                assert registry.scenario_description(name)

    def test_quick_is_smaller(self):
        for name in registry.scenario_names():
            quick = registry.scenario(name, quick=True)
            full = registry.scenario(name, quick=False)
            if isinstance(quick, ScenarioSpec):
                assert max(quick.ns) <= max(full.ns)
            else:
                assert max(g.num_nodes for _, g in quick.graphs) <= max(
                    g.num_nodes for _, g in full.graphs
                )
            assert quick.num_configs <= full.num_configs

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            registry.scenario("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register("table1", "again")(lambda quick: None)

    def test_table1_grid_shape(self):
        spec = registry.scenario("table1")
        assert spec.metrics == ("cover",)
        placements = {family.placement for family in spec.families}
        assert placements == {"all_on_one", "equally_spaced"}

    def test_stabilization_runs_quick(self):
        spec = registry.scenario("stabilization", quick=True)
        result = run_sweep(spec)
        for cell in result.results:
            assert cell.metrics["preperiod"] >= 0
            assert cell.metrics["period"] >= 1
            # Theorem 6 shape: worst in-cycle gap is O(n/k)
            assert cell.metrics["worst_gap"] <= 6 * cell.config.n / cell.config.k

    def test_table1_full_covers_both_models(self):
        spec = registry.scenario("table1_full", quick=True)
        assert set(spec.models) == {"rotor", "walk"}
        assert 1 in spec.ks  # the S(k) baseline
        assert spec.repetitions >= 5
        placements = {family.placement for family in spec.families}
        assert placements == {"all_on_one", "equally_spaced"}

    def test_general_speedup_registered(self):
        assert "general_speedup" in registry.scenario_names()

    def test_general_speedup_runs_quick_with_baseline(self):
        spec = registry.scenario("general_speedup", quick=True)
        assert 1 in spec.ks
        result = run_sweep(spec)
        from repro.analysis.cover_time import rotor_cover_time_general

        for cell in result.results:
            assert cell.config.model == "rotor-general"
            assert cell.metrics["cover"] >= 0
        # Spot-check one cell against the serial reference harness.
        sample = result.results[0].config
        graph = dict(spec.graphs)[sample.placement]
        assert result.results[0].metrics["cover"] == (
            rotor_cover_time_general(
                graph, list(sample.agents), list(sample.ports),
                sample.max_rounds,
            )
        )

    def test_general_speedup_cli_caches(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["sweep", "general_speedup", "--quick", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "speed-up S(k)" in out  # aggregate view joins k=1 baselines
        expected = registry.scenario(
            "general_speedup", quick=True
        ).num_configs
        assert f"computed={expected} cached=0" in out
        assert main(
            ["sweep", "general_speedup", "--quick", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert f"computed=0 cached={expected}" in out

    def test_speedup_runs_quick_with_baseline(self):
        spec = registry.scenario("speedup", quick=True)
        assert 1 in spec.ks
        result = run_sweep(spec)
        walk_cells = [
            cell for cell in result.results if cell.config.model == "walk"
        ]
        assert walk_cells
        for cell in walk_cells:
            assert cell.metrics["cover_reps"] >= 5
            assert cell.metrics["cover_truncated"] == 0
            assert (
                cell.metrics["cover_ci_low"]
                <= cell.metrics["cover"]
                <= cell.metrics["cover_ci_high"]
            )


class TestCliSweep:
    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["sweep", "table1", "--quick", "--jobs", "2", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep 'table1'" in out
        expected = registry.scenario("table1", quick=True).num_configs
        assert f"computed={expected} cached=0" in out

        assert main(
            ["sweep", "table1", "--quick", "--jobs", "2", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        expected = registry.scenario("table1", quick=True).num_configs
        assert f"computed=0 cached={expected}" in out

    def test_sweep_without_cache(self, capsys):
        assert main(
            ["sweep", "table1", "--quick", "--cache", "none"]
        ) == 0
        assert "cache=disabled" in capsys.readouterr().out

    def test_sweep_csv_export(self, tmp_path, capsys):
        csv_dir = str(tmp_path / "csv")
        assert main(
            ["sweep", "table1", "--quick", "--cache", "none", "--csv", csv_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_unknown_sweep_name_exits_2(self, capsys):
        # Rejected at the argparse layer: exit code 2, one-line message,
        # no traceback — with or without --quick.
        for argv in (
            ["sweep", "nope", "--cache", "none"],
            ["sweep", "nope", "--quick", "--cache", "none"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unknown sweep scenario" in capsys.readouterr().err

    def test_negative_jobs_exits_2(self, capsys):
        # Regression: --jobs -2 used to surface a raw ValueError
        # traceback from run_sweep.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "table1", "--jobs", "-2", "--cache", "none"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "positive" in err

    def test_non_integer_jobs_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "table1", "--jobs", "two", "--cache", "none"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_invalid_chunk_lanes_exits_2(self, capsys):
        # Validated at the argparse layer like --jobs: bad values exit
        # 2 with a one-line message, never a run_sweep traceback.
        for bad in ("-1", "0", "two"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["sweep", "table1", "--chunk-lanes", bad,
                     "--cache", "none"]
                )
            assert excinfo.value.code == 2
            assert "--chunk-lanes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "table1", "--quick", "--fuse-rounds", "2"],
            ["run", "table1", "--quick", "--max-retries", "1"],
            ["all", "--quick", "--chunk-timeout", "5"],
        ],
        ids=["sweep-fuse-rounds", "run-max-retries", "all-chunk-timeout"],
    )
    def test_deleted_flags_exit_2(self, argv, capsys):
        # Knobs nothing set are gone: argparse refuses them up front.
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--cache", "none"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert error.endswith(
            f"unrecognized arguments: {' '.join(argv[-2:])}"
        )

    def test_table1_full_cli_prints_both_models_and_ratios(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["sweep", "table1_full", "--quick", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "rotor" in out and "walk" in out
        assert "cover_ci_low" in out
        assert "speed-up S(k)" in out
        assert "rotor vs random-walk cover times" in out
        # the aggregate tables come from the same (now fully cached) sweep
        assert main(
            ["sweep", "table1_full", "--quick", "--cache", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        expected = registry.scenario("table1_full", quick=True).num_configs
        assert f"computed=0 cached={expected}" in out
        assert "walk/rotor" in out

    def test_list_mentions_sweeps(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.scenario_names():
            assert name in out
