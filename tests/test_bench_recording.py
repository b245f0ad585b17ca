"""Bench trajectory recording: independent recorders must merge.

``BENCH_sweep.json`` is written by *every* ``bench_sweep_*`` module,
in whatever order pytest runs them (or a developer re-runs one).  The
recorder therefore read-modify-writes the file atomically: a section
recorded by one benchmark must survive another benchmark recording a
different section afterwards — losing sections silently erases the
perf trajectory CI uploads and floors are pinned against.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_conftest():
    """The benchmarks' conftest module (not a package; load by path)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRecordBench:
    def test_two_recorders_with_different_keys_both_survive(self, tmp_path):
        conftest = _bench_conftest()
        path = tmp_path / "BENCH_test.json"
        conftest._record_bench(path, "walk_kernel", {"speedup": 5.1})
        conftest._record_bench(path, "fused_ring_limit", {"speedup": 1.13})
        data = json.loads(path.read_text())
        assert data == {
            "walk_kernel": {"speedup": 5.1},
            "fused_ring_limit": {"speedup": 1.13},
        }

    def test_rerecording_a_key_replaces_only_that_section(self, tmp_path):
        conftest = _bench_conftest()
        path = tmp_path / "BENCH_test.json"
        conftest._record_bench(path, "a", {"v": 1})
        conftest._record_bench(path, "b", {"v": 2})
        conftest._record_bench(path, "a", {"v": 3})
        data = json.loads(path.read_text())
        assert data == {"a": {"v": 3}, "b": {"v": 2}}

    def test_corrupt_existing_file_is_replaced_not_fatal(self, tmp_path):
        conftest = _bench_conftest()
        path = tmp_path / "BENCH_test.json"
        path.write_text("{not json")
        conftest._record_bench(path, "a", {"v": 1})
        assert json.loads(path.read_text()) == {"a": {"v": 1}}

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        conftest = _bench_conftest()
        path = tmp_path / "BENCH_test.json"
        conftest._record_bench(path, "a", {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_test.json"]

    def test_generated_trajectory_retains_every_section(
        self, tmp_path, monkeypatch
    ):
        # Every sweep bench records through ``record_sweep_bench``, so
        # the generated trajectory keeps one section per bench, never
        # a lone survivor from the last writer.  The file is pointed
        # into ``tmp_path``: the test neither reads nor writes the
        # checkout's own (gitignored) ``BENCH_sweep.json``.
        conftest = _bench_conftest()
        path = tmp_path / "BENCH_sweep.json"
        monkeypatch.setattr(conftest, "BENCH_SWEEP_PATH", path)
        conftest.record_sweep_bench("executor_kernel", {"speedup": 41.0})
        conftest.record_sweep_bench("stabilization", {"speedup": 9.2})
        assert json.loads(path.read_text()) == {
            "executor_kernel": {"speedup": 41.0},
            "stabilization": {"speedup": 9.2},
        }
