"""Compare two result sets of the benchmark: a parent and a change.

Record each side with ``run.py --record FILE`` (the same seeds, run
length and benchmark code on both sides, alternating which side runs
first), then::

    python3 perfbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric this prints each side's
median and quartiles, the share of pairs each side won (runs pair up
by seed), and a verdict:

* ``better`` — the change won at least nine tenths of at least ten
  pairs (ties count for neither) and the medians differ, in the
  change's favour, by more than the parent's quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` — the run-to-run spread is wider than the bound, so
  no regression can be ruled out (unless every change run reads better
  than every parent run), or a gain rests on fewer than ten pairs;
* ``unchanged`` — none of the above;
* ``invalid (failures)`` — instead of any verdict but ``worse``, when
  a change run failed a check or the change's failure rate
  (``failed/attempted`` over all its runs of the workload) is higher
  than the parent's: a gain does not count when more operations fail.

Each workload's header line prints both sides' failures.

Traced runs (``--trace 1``) add a table of per-layer medians and their
deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: The benchmark definition, for each metric's direction and bound.
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
    failed_more: bool = False,
) -> str:
    """The §8 verdict for one metric on one workload.

    ``failed_more`` says the change failed more checks than the parent.
    """
    result = _timing_verdict(parent, change, pairs, better, bound)
    if failed_more and result != "worse":
        return "invalid (failures)"
    return result


def _timing_verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and won >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    c1, c3 = quartiles(change)
    spread = max(q3 - q1, c3 - c1) / abs(base) if base else 0.0
    regressed = -gain > bound * abs(base)
    if spread > bound:
        every_better = all(
            sign * (c - p) > 0 for c in change for p in parent
        )
        every_worse = all(
            sign * (c - p) < 0 for c in change for p in parent
        )
        if every_better:
            return "unchanged"
        return "worse" if every_worse and regressed else "unresolved"
    return "worse" if regressed else "unchanged"


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _series(records: list[dict], workload: str, trace: int) -> dict:
    """``seed -> metrics`` of one side's runs of a workload."""
    return {
        record["seed"]: record["result"]["metrics"]
        for record in records
        if record["workload"] == workload and record["trace"] == trace
    }


def _failures(records: list[dict], workload: str) -> tuple[int, int, bool]:
    """``(failed, attempted, every run correct)`` over one side's runs."""
    runs = [r["result"] for r in records if r["workload"] == workload]
    return (
        sum(r["failed"] for r in runs),
        sum(r["attempted"] for r in runs),
        all(r["correct"] for r in runs),
    )


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def compare(parent: list[dict], change: list[dict], spec: dict) -> str:
    lines = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = _series(parent, workload, 0)
        new = _series(change, workload, 0)
        if not base or not new:
            continue
        parent_failed, parent_attempted, _ = _failures(parent, workload)
        change_failed, change_attempted, change_correct = _failures(
            change, workload
        )
        failed_more = not change_correct or (
            change_failed * parent_attempted > parent_failed * change_attempted
        )
        lines.append(
            f"== {workload}: {len(base)} parent run(s), {len(new)} change "
            f"run(s); failed {parent_failed}/{parent_attempted} parent, "
            f"{change_failed}/{change_attempted} change"
        )
        lines.append(
            "  metric            parent median [q1, q3]      "
            "change median [q1, q3]      parent/change won  verdict"
        )
        seeds = sorted(set(base) & set(new))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [m[name]["value"] for m in base.values()]
            c = [m[name]["value"] for m in new.values()]
            pairs = [
                (base[s][name]["value"], new[s][name]["value"]) for s in seeds
            ]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            change_won = sum(1 for a, b in pairs if sign * (b - a) > 0)
            parent_won = sum(1 for a, b in pairs if sign * (b - a) < 0)
            share = (
                f"{parent_won / len(pairs):.0%}/{change_won / len(pairs):.0%}"
                if pairs else "-"
            )
            pq, cq = quartiles(p), quartiles(c)
            lines.append(
                f"  {name:<16}  {_fmt(statistics.median(p)):>9} "
                f"[{_fmt(pq[0])}, {_fmt(pq[1])}]".ljust(46)
                + f"{_fmt(statistics.median(c)):>9} "
                f"[{_fmt(cq[0])}, {_fmt(cq[1])}]".ljust(28)
                + f"{share:>17}  "
                + verdict(
                    p, c, pairs, metric["better"], metric["bound"], failed_more
                )
            )
        traced_base = _series(parent, workload, 1)
        traced_new = _series(change, workload, 1)
        if traced_base and traced_new:
            lines.append("  per-layer medians (traced runs): "
                         "parent -> change (delta)")
            for metric in spec["per_layer"]:
                name = metric["name"]
                p = statistics.median(
                    m[name]["value"] for m in traced_base.values()
                )
                c = statistics.median(
                    m[name]["value"] for m in traced_new.values()
                )
                if p == 0 and c == 0:
                    continue
                lines.append(
                    f"    {name:<30} {_fmt(p):>10} -> {_fmt(c):>10} "
                    f"({c - p:+.4g} {metric['unit']})"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="JSON lines recorded on the parent")
    parser.add_argument("change", help="JSON lines recorded on the change")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    print(compare(load(args.parent), load(args.change), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
