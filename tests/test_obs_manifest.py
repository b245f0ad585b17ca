"""Trace sessions: shard merge determinism, jobs>1, validation, CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import telemetry
from repro.obs.manifest import (
    append_shard,
    current_session,
    load_manifest,
    trace_session,
    write_manifest,
)
from repro.obs.stats import render_stats
from repro.sweep.executor import run_sweep
from repro.sweep.spec import InitFamily, ScenarioSpec


def _cover_spec(**overrides):
    base = dict(
        name="obs-test",
        ns=(16, 24),
        ks=(2, 3),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _traced_sweep(tmp_path, tag, jobs, cache_dir=None):
    path = str(tmp_path / f"{tag}.jsonl")
    with trace_session(path, meta={"tag": tag}):
        result = run_sweep(_cover_spec(), jobs=jobs, cache_dir=cache_dir)
    return path, result


class TestTraceSession:
    def test_lifecycle_writes_manifest_and_cleans_shards(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_session(path, meta={"command": "test"}) as session:
            assert current_session() is session
            assert telemetry.active() is session.telemetry
            telemetry.count("demo.counter", 2)
            with telemetry.span("demo"):
                pass
        assert current_session() is None
        assert telemetry.active() is None
        assert not os.path.exists(session.shard_dir)
        manifest = load_manifest(path)
        assert manifest["run_id"] == session.run_id
        assert manifest["meta"]["command"] == "test"
        assert manifest["meta"]["wall"] >= 0.0
        assert manifest["counters"]["demo.counter"] == 2
        assert [s["name"] for s in manifest["spans"]] == ["demo"]
        assert manifest["spans"][0]["worker"] == "main"

    def test_nested_sessions_rejected(self, tmp_path):
        with trace_session(str(tmp_path / "outer.jsonl")):
            with pytest.raises(RuntimeError, match="already active"):
                with trace_session(str(tmp_path / "inner.jsonl")):
                    pass  # pragma: no cover

    def test_manifest_written_even_when_body_raises(self, tmp_path):
        path = str(tmp_path / "crash.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            with trace_session(path):
                telemetry.count("partial.progress", 1)
                raise RuntimeError("boom")
        manifest = load_manifest(path)
        assert manifest["counters"]["partial.progress"] == 1


class TestParallelMerge:
    def test_jobs2_counters_sum_to_serial_counters(
        self, tmp_path, chunk_lanes
    ):
        chunk_lanes(3)
        serial_path, serial_result = _traced_sweep(tmp_path, "serial", jobs=1)
        para_path, para_result = _traced_sweep(tmp_path, "para", jobs=2)
        assert [c.metrics for c in serial_result.results] == [
            c.metrics for c in para_result.results
        ]
        serial = load_manifest(serial_path)
        para = load_manifest(para_path)
        # Chunk planning ignores ``jobs`` for ring sweeps, so per-shard
        # counters must sum to exactly the serial totals.
        assert para["counters"] == serial["counters"]
        assert para["counters"]["executor.cells"] == 8
        assert para["counters"]["executor.cells_computed"] == 8

    def test_jobs2_manifest_has_workers_and_chunk_spans(
        self, tmp_path, chunk_lanes
    ):
        chunk_lanes(3)
        path, _ = _traced_sweep(tmp_path, "workers", jobs=2)
        manifest = load_manifest(path)
        assert manifest["workers"]
        for worker in manifest["workers"]:
            assert worker["chunks"] >= 1
        total_chunks = sum(w["chunks"] for w in manifest["workers"])
        assert total_chunks == manifest["counters"]["executor.chunks"]
        chunk_spans = [
            s
            for s in manifest["spans"]
            if s["name"].startswith("chunk[") and "/" not in s["name"]
        ]
        assert len(chunk_spans) == total_chunks
        compute = [
            s for s in manifest["spans"] if s["name"].endswith("/compute")
        ]
        assert len(compute) == total_chunks
        # Every chunk index 0..N-1 appears exactly once.
        indices = sorted(
            int(s["name"][len("chunk["):-1]) for s in chunk_spans
        )
        assert indices == list(range(total_chunks))

    def test_counter_section_reproducible_across_runs(
        self, tmp_path, chunk_lanes
    ):
        chunk_lanes(3)
        first_path, _ = _traced_sweep(tmp_path, "rep1", jobs=2)
        second_path, _ = _traced_sweep(tmp_path, "rep2", jobs=2)
        first = load_manifest(first_path)
        second = load_manifest(second_path)
        assert first["counters"] == second["counters"]

    def test_same_shard_set_merges_byte_identically(
        self, tmp_path, chunk_lanes
    ):
        chunk_lanes(3)
        path = str(tmp_path / "reprod.jsonl")
        with trace_session(path) as session:
            run_sweep(_cover_spec(), jobs=2)
            kwargs = dict(
                run_id=session.run_id,
                main=session.telemetry,
                shard_dir=session.shard_dir,
                meta={"fixed": True},
            )
            first = str(tmp_path / "merge1.jsonl")
            second = str(tmp_path / "merge2.jsonl")
            write_manifest(first, **kwargs)
            write_manifest(second, **kwargs)
        with open(first, "rb") as fh:
            first_bytes = fh.read()
        with open(second, "rb") as fh:
            second_bytes = fh.read()
        assert first_bytes == second_bytes
        load_manifest(first)  # both merges validate

    def test_cache_counters_track_hits_and_puts(self, tmp_path, chunk_lanes):
        chunk_lanes(3)
        cache_dir = str(tmp_path / "cache")
        cold_path, _ = _traced_sweep(
            tmp_path, "cold", jobs=1, cache_dir=cache_dir
        )
        warm_path, _ = _traced_sweep(
            tmp_path, "warm", jobs=1, cache_dir=cache_dir
        )
        cold = load_manifest(cold_path)["counters"]
        warm = load_manifest(warm_path)["counters"]
        assert cold["cache.hits"] == 0
        assert cold["cache.misses"] == 8
        assert cold["cache.puts"] == 8
        assert warm["cache.hits"] == 8
        assert warm["cache.misses"] == 0
        assert "cache.puts" not in warm

    def test_kernel_counters_present_for_ring_and_walk(
        self, tmp_path, chunk_lanes
    ):
        path = str(tmp_path / "kernels.jsonl")
        spec = _cover_spec(
            models=("rotor", "walk"),
            repetitions=2,
            ns=(16,),
        )
        chunk_lanes(4)
        with trace_session(path):
            run_sweep(spec, jobs=1)
        counters = load_manifest(path)["counters"]
        assert counters["walk.invocations"] >= 1
        assert counters["walk.lane_rounds"] > 0
        # The four n=16 rotor cover cells hold Σk = 10 < n agents: a
        # sparse chunk, stepped by the sparse stepper, not the ring or
        # the general kernel.
        assert counters["sparse.invocations"] == 1
        assert counters["sparse.lanes"] == 4
        assert "ring.invocations" not in counters
        assert "general.invocations" not in counters

    def test_limit_kernel_counts_lane_rounds(self, tmp_path):
        path = str(tmp_path / "limit.jsonl")
        with trace_session(path):
            run_sweep(_cover_spec(metrics=("stabilization",)), jobs=1)
        manifest = load_manifest(path)
        assert manifest["counters"]["limit.lane_rounds"] > 0
        # kernel, invocations, lanes, rounds, lane_rounds, Mlr/s, ...
        (row,) = [
            line.split() for line in render_stats(manifest, path=path)
            .splitlines() if line.split()[:1] == ["limit"]
        ]
        assert row[4] == str(manifest["counters"]["limit.lane_rounds"])
        assert float(row[5]) >= 0


def _kernel_rows(manifest: dict) -> dict[str, list[str]]:
    """``repro stats`` kernel-table rows by kernel name, split on spaces:
    kernel, invocations, lanes, rounds, lane_rounds, Mlr/s, ..."""
    kernels = ("ring", "single", "sparse", "limit", "gaps", "walk", "general")
    return {
        fields[0]: fields
        for fields in (
            line.split() for line in render_stats(manifest).splitlines()
        )
        if fields[:1] and fields[0] in kernels
    }


class TestKernelTable:
    def test_each_kernel_rated_against_its_own_spans(self):
        # Two chunks spend 10 s in compute; the ring kernel 2 s of it
        # over two spans, the sparse stepper 0.25 s.  Against the
        # compute wall both rates would read 0.60 and 0.10 Mlr/s.
        manifest = {
            "schema": 1,
            "run_id": "abc123",
            "meta": {},
            "counters": {
                "ring.invocations": 2,
                "ring.lanes": 128,
                "ring.rounds": 500,
                "ring.lane_rounds": 6_000_000,
                "sparse.invocations": 1,
                "sparse.lanes": 4,
                "sparse.rounds": 300_000,
                "sparse.lane_rounds": 1_000_000,
            },
            "spans": [
                {"name": "chunk[0]/compute", "wall": 6.0, "cpu": 6.0},
                {"name": "chunk[0]/compute/kernel/ring", "wall": 1.5},
                {"name": "chunk[1]/compute", "wall": 4.0, "cpu": 4.0},
                {"name": "chunk[1]/compute/kernel/ring", "wall": 0.5},
                {"name": "chunk[1]/compute/kernel/sparse", "wall": 0.25},
            ],
            "workers": [],
            "leftover_shards": [],
        }
        rows = _kernel_rows(manifest)
        assert rows["ring"][4:6] == ["6000000", "3.00"]
        assert rows["sparse"][4:6] == ["1000000", "4.00"]

    def test_closed_form_and_ring_rows_apart(self, tmp_path):
        # The k = 1 cells resolve in closed form under kernel/single; the
        # k = 12 cells (Σk = 24 >= n) step on the dense ring kernel,
        # whose rate divides its lane-rounds by its own spans alone.
        path = str(tmp_path / "single.jsonl")
        with trace_session(path):
            run_sweep(_cover_spec(ns=(16,), ks=(1, 12)), jobs=1)
        manifest = load_manifest(path)
        counters = manifest["counters"]
        assert counters["single.invocations"] == 1
        assert counters["single.lanes"] == 2
        assert counters["single.lanes_covered"] == 2
        assert counters["single.lanes_truncated"] == 0
        assert not any(name.startswith("ring.single") for name in counters)
        rows = _kernel_rows(manifest)
        assert set(rows) == {"single", "ring"}
        # kernel, invocations, lanes, rounds, lane_rounds, Mlr/s, ...
        assert rows["single"][1:6] == ["1", "2", "-", "-", "-"]
        assert rows["single"][6:] == ["2", "0"]
        ring_wall = sum(
            span["wall"] for span in manifest["spans"]
            if span["name"].endswith("/kernel/ring")
        )
        rate = counters["ring.lane_rounds"] / ring_wall / 1e6
        assert rows["ring"][5] == f"{rate:.2f}"

    def test_every_traced_kernel_has_its_own_span(self, tmp_path):
        path = str(tmp_path / "kernels.jsonl")
        with trace_session(path):
            run_sweep(
                _cover_spec(models=("rotor", "walk"), repetitions=2),
                jobs=1,
            )
            run_sweep(_cover_spec(metrics=("stabilization", "return")))
        manifest = load_manifest(path)
        spans = {
            span["name"].split("/compute/", 1)[-1]
            for span in manifest["spans"]
        }
        rows = _kernel_rows(manifest)
        # Each cover group holds Σk = 10 agents, fewer than n = 16 and
        # 24, so the sparse stepper runs them and no ring kernel does.
        assert set(rows) == {"sparse", "limit", "gaps", "walk"}
        for kernel, fields in rows.items():
            assert f"kernel/{kernel}" in spans
            assert fields[5] != "-"  # a rate over the kernel's spans


class TestLeftoverShards:
    def test_foreign_shard_reported_not_merged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_session(path) as session:
            leftover = os.path.join(
                session.shard_dir, "deadbeefdeadbeef.999.events.jsonl"
            )
            with open(leftover, "w") as handle:
                handle.write(
                    json.dumps(
                        {"event": "counters", "counters": {"evil.count": 7}}
                    )
                    + "\n"
                )
            telemetry.count("good.count", 1)
        manifest = load_manifest(path)
        assert manifest["leftover_shards"] == [
            "deadbeefdeadbeef.999.events.jsonl"
        ]
        assert "evil.count" not in manifest["counters"]
        assert manifest["counters"]["good.count"] == 1
        # close() must not delete another run's shard.
        assert os.path.exists(leftover)
        rendered = render_stats(manifest, path=path)
        assert "leftover shard not merged" in rendered

    def test_own_run_shards_are_merged_and_removed(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_session(path) as session:
            append_shard(
                session.shard_dir,
                session.run_id,
                [
                    {
                        "event": "span",
                        "name": "chunk[0]",
                        "start": 0.0,
                        "wall": 0.5,
                        "cpu": 0.4,
                    },
                    {"event": "counters", "counters": {"ring.rounds": 10}},
                ],
            )
        manifest = load_manifest(path)
        assert manifest["counters"]["ring.rounds"] == 10
        assert manifest["leftover_shards"] == []
        assert manifest["workers"] == [
            {
                "event": "worker",
                "worker": 0,
                "pid": str(os.getpid()),
                "chunks": 1,
                "wall": 0.5,
                "cpu": 0.4,
            }
        ]
        assert not os.path.exists(session.shard_dir)


class TestLoadManifestValidation:
    def _write(self, tmp_path, lines):
        path = str(tmp_path / "manifest.jsonl")
        with open(path, "w") as handle:
            for line in lines:
                handle.write(
                    (line if isinstance(line, str) else json.dumps(line))
                    + "\n"
                )
        return path

    def _header(self, **overrides):
        header = {
            "event": "manifest",
            "schema": 1,
            "run_id": "abc123",
            "meta": {},
        }
        header.update(overrides)
        return header

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(ValueError, match="empty manifest"):
            load_manifest(path)

    def test_first_event_must_be_header(self, tmp_path):
        path = self._write(
            tmp_path, [{"event": "counter", "name": "x", "value": 1}]
        )
        with pytest.raises(ValueError, match="must be 'manifest'"):
            load_manifest(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._header(schema=99)])
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            load_manifest(path)

    def test_missing_run_id_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._header(run_id="")])
        with pytest.raises(ValueError, match="requires a run_id"):
            load_manifest(path)

    def test_non_json_line_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._header(), "not json {"])
        with pytest.raises(ValueError, match="line 2: not JSON"):
            load_manifest(path)

    def test_non_integer_counter_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                {"event": "counter", "name": "x", "value": 1.5},
            ],
        )
        with pytest.raises(ValueError, match="integer value"):
            load_manifest(path)

    def test_boolean_counter_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                {"event": "counter", "name": "x", "value": True},
            ],
        )
        with pytest.raises(ValueError, match="integer value"):
            load_manifest(path)

    def test_duplicate_counter_rejected(self, tmp_path):
        counter = {"event": "counter", "name": "x", "value": 1}
        path = self._write(tmp_path, [self._header(), counter, counter])
        with pytest.raises(ValueError, match="duplicate counter"):
            load_manifest(path)

    def test_span_without_worker_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                {"event": "span", "name": "plan", "start": 0.0, "wall": 0.1},
            ],
        )
        with pytest.raises(ValueError, match="requires a worker"):
            load_manifest(path)

    def test_negative_span_wall_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                self._header(),
                {
                    "event": "span",
                    "name": "plan",
                    "start": 0.0,
                    "wall": -0.1,
                    "worker": "main",
                },
            ],
        )
        with pytest.raises(ValueError, match="non-negative wall"):
            load_manifest(path)

    def test_unknown_event_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._header(), {"event": "mystery"}])
        with pytest.raises(ValueError, match="unknown event kind"):
            load_manifest(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._header(), self._header()])
        with pytest.raises(ValueError, match="duplicate manifest header"):
            load_manifest(path)


class TestCli:
    def _run(self, capsys, *argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_trace_leaves_report_bit_identical(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        status, plain_out, _ = self._run(
            capsys,
            "run", "theorem1", "--quick",
            "--cache", str(tmp_path / "cache-plain"),
        )
        assert status == 0
        status, traced_out, traced_err = self._run(
            capsys,
            "run", "theorem1", "--quick",
            "--cache", str(tmp_path / "cache-traced"),
            "--trace", trace,
        )
        assert status == 0
        # Timings vary; everything before the run summary is the report.
        assert traced_out.split("computed=")[0] == plain_out.split("computed=")[0]
        assert "wrote trace manifest" in traced_err  # notice on stderr only
        assert "wrote trace manifest" not in traced_out
        manifest = load_manifest(trace)
        assert manifest["meta"]["command"] == "run"
        assert manifest["meta"]["name"] == "theorem1"

    def test_stats_renders_tables(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        status, _, _ = self._run(
            capsys,
            "run", "theorem1", "--quick",
            "--cache", str(tmp_path / "cache"),
            "--trace", trace,
        )
        assert status == 0
        status, out, _ = self._run(capsys, "stats", trace)
        assert status == 0
        assert f"trace {trace}: run " in out
        assert "per-phase wall clock" in out
        assert "result cache" in out
        assert "all counters" in out
        assert "chunk[*]" in out

    def test_stats_missing_file_exits_2(self, tmp_path, capsys):
        status, _, err = self._run(
            capsys, "stats", str(tmp_path / "absent.jsonl")
        )
        assert status == 2
        assert "cannot read manifest" in err

    def test_stats_invalid_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not a manifest\n")
        status, _, err = self._run(capsys, "stats", str(bad))
        assert status == 2
        assert "invalid manifest" in err
