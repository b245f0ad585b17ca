"""Tests for the experiments CLI and the trace/rendering module."""

import importlib
import inspect

import pytest

from repro.analysis.backend import MeasurementPlan
from repro.cli import EXPERIMENTS, main
from repro.core import placement, pointers
from repro.core.domains import VisitTypeTracker, domain_snapshot
from repro.core.ring import RingRotorRouter
from repro.core.trace import (
    RunRecorder,
    render_configuration,
    render_domains,
)


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


class TestRenderConfiguration:
    def test_glyphs(self):
        e = RingRotorRouter(6, [1, -1, 1, 1, 1, 1], [0, 0, 3])
        text = render_configuration(e)
        assert len(text) == 6
        assert text[0] == "2"     # two agents
        assert text[3] == "1"     # one agent
        assert text[1] == "."     # unvisited
        e.step()
        text = render_configuration(e)
        assert set(text) <= set("123456789*><.")

    def test_pointer_arrows(self):
        e = RingRotorRouter(4, [1, 1, -1, 1], [0])
        e.step()  # leaves node 0, flips its pointer to -1
        text = render_configuration(e)
        assert text[0] == "<"

    def test_ten_plus_agents_star(self):
        e = RingRotorRouter(4, [1] * 4, [1] * 12)
        assert render_configuration(e)[1] == "*"


class TestRenderDomains:
    def _snapshot(self):
        n, k = 48, 3
        agents = placement.equally_spaced(n, k)
        e = RingRotorRouter(n, pointers.ring_negative(n, agents), agents)
        tracker = VisitTypeTracker(e)
        for _ in range(400):
            tracker.advance()
        return domain_snapshot(e, tracker)

    def test_full_width(self):
        snapshot = self._snapshot()
        text = render_domains(snapshot)
        assert len(text) == snapshot.n
        # three domains -> letters a, b, c with capitals at anchors
        assert set(text.lower()) <= {"a", "b", "c", "."}
        assert sum(ch.isupper() for ch in text) == 3

    def test_downsampled(self):
        snapshot = self._snapshot()
        assert len(render_domains(snapshot, width=20)) == 20


class TestRunRecorder:
    def test_records_rounds(self):
        e = RingRotorRouter(12, [1] * 12, [0, 6], track_counts=False)
        recorder = RunRecorder(e)
        recorder.advance(10)
        assert len(recorder.records) == 10
        assert recorder.records[-1].round == 10
        assert all(len(r.positions) == 2 for r in recorder.records)

    def test_capacity_trimming(self):
        e = RingRotorRouter(12, [1] * 12, [0], track_counts=False)
        recorder = RunRecorder(e, capacity=5)
        recorder.advance(12)
        assert len(recorder.records) == 5
        assert recorder.records[-1].round == 12
        assert recorder.records[0].round == 8

    def test_node_visit_rounds(self):
        e = RingRotorRouter(8, [1] * 8, [0], track_counts=False)
        recorder = RunRecorder(e)
        recorder.advance(8)
        # Uniform clockwise pointers: node v first visited at round v.
        assert recorder.node_visit_rounds(3)[0] == 3

    def test_timeline_shape(self):
        e = RingRotorRouter(10, [1] * 10, [0, 5], track_counts=False)
        recorder = RunRecorder(e)
        recorder.advance(6)
        lines = recorder.timeline(last=4).splitlines()
        assert len(lines) == 4
        assert all("#" in line for line in lines)

    def test_validation(self):
        e = RingRotorRouter(8, [1] * 8, [0], track_counts=False)
        with pytest.raises(ValueError):
            RunRecorder(e, capacity=0)
        recorder = RunRecorder(e)
        with pytest.raises(ValueError):
            recorder.advance(-1)
