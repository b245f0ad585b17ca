"""Tests for the experiments CLI."""

import importlib
import inspect

import pytest

from repro.analysis.backend import MeasurementPlan
from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_every_registered_module_resolves(self, name):
        # Every runner QUICK names exists and takes the plan and its
        # quick sizes, so a misspelled size fails without running.
        module = importlib.import_module(EXPERIMENTS[name][0])
        assert module.QUICK
        for runner_name, overrides in module.QUICK.items():
            runner = getattr(module, runner_name)
            inspect.signature(runner).bind(MeasurementPlan(), **overrides)

    def test_quick_figures_print_both_reports(self, monkeypatch, capsys):
        from repro.experiments import figures

        monkeypatch.setattr(figures, "QUICK", {
            "run_figure1": {
                "n": 32, "ks": (4,), "burn_in_factor": 2,
                "observation_factor": 1,
            },
            "run_figure2": {"n": 64, "k": 4},
        })
        assert main(["run", "figures", "--quick", "--cache", "none"]) == 0
        captured = capsys.readouterr()
        assert "Figure 1: border types" in captured.out
        assert "Figure 2: Phase B iterations" in captured.out
        assert "n=32 ring" in captured.out
        assert "computed=" not in captured.out
        assert captured.err == ""

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_rejects_bad_backend(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--backend", "gpu"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "theorem6"], ["all"], ["sweep", "table1"]],
        ids=["run", "all", "sweep"],
    )
    def test_uncreatable_csv_dir_fails_before_computing(
        self, argv, tmp_path, capsys
    ):
        (tmp_path / "file").write_text("")
        cache, csv = str(tmp_path / "cache"), str(tmp_path / "file" / "sub")
        assert main(argv + ["--quick", "--cache", cache, "--csv", csv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "cache").exists()


class TestCliBackendAccounting:
    """`run` and `sweep` both end with a computed=X cached=Y line."""

    def test_run_second_invocation_reports_zero_computed(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        args = ["run", "stabilization", "--quick", "--cache", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed=8 cached=0" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "computed=0 cached=8" in second
        # Cached rerun renders the identical report.
        assert first.split("computed=")[0] == second.split("computed=")[0]

    def test_sweep_second_invocation_reports_zero_computed(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "sweep-cache")
        args = ["sweep", "table1", "--quick", "--cache", cache]
        assert main(args) == 0
        assert "computed=6 cached=0" in capsys.readouterr().out
        assert main(args) == 0
        assert "computed=0 cached=6" in capsys.readouterr().out
