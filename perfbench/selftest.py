"""The benchmark's own tests, at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

They run every workload traced and untraced, check that every metric
name in ``BENCHMARK.json`` is emitted with a unit, that the output
checks fail on an altered digest, that the benchmark refuses to run
without the package source, and the compare verdicts.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import verdict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT, here: str = HERE) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def copy_benchmark(tmp_path) -> str:
    """A copy of the benchmark's directory (and BENCHMARK.json) in tmp."""
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    return str(copy)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_name_limits():
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    status, stdout = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert status == 0, stdout
    result = last_json(stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_altered_digest_fails_the_check(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    digests = expected["grid_churn"]["smoke"]["0"]
    name = sorted(digests)[0]
    digests[name] = "0" * 64
    copy = copy_benchmark(tmp_path)
    with open(os.path.join(copy, "expected.json"), "w") as handle:
        json.dump(expected, handle)
    # The copy runs against this checkout's package source.
    status, stdout = bench(
        "--workload", "grid_churn", "--seed", "0", "--seconds", "1",
        "--smoke", here=copy,
    )
    assert status == 1
    result = last_json(stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    copy = copy_benchmark(tmp_path)
    status, stdout = bench(
        "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
        cwd=str(tmp_path), here=copy,
    )
    assert status != 0
    assert stdout.strip() == ""


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1) == "better"
    assert verdict(parent, slower, list(zip(parent, slower)), "lower",
                   0.1) == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), "lower",
                   0.1) == "unchanged"
    # A gain on too few pairs is not a claim.
    assert verdict(parent[:3], faster[:3], pairs[:3], "lower",
                   0.1) == "unresolved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, parent, list(zip(noisy, parent)), "lower",
                   0.1) == "unresolved"
    # A gain does not count when the change fails more checks.
    assert verdict(parent, faster, pairs, "lower", 0.1,
                   failed_more=True) == "invalid (failures)"
    assert verdict(parent, slower, list(zip(parent, slower)), "lower",
                   0.1, failed_more=True) == "worse"
