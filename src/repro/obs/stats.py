"""`repro stats`: plain-text breakdowns of a trace manifest.

Renders the tables the CLI's ``stats`` subcommand prints: per-phase
wall clock (chunk indices collapsed to ``chunk[*]`` so thousand-chunk
runs stay readable), cache traffic, fault handling (retry/quarantine/
pool-restart events of the supervising dispatcher, shown only when a
run actually saw any), per-kernel counters with each kernel's
throughput over its own ``kernel/<name>`` spans, per-worker busy
time, and the raw counter list — all through
:class:`repro.util.tables.Table`, the same renderer experiment
reports use.
"""

from __future__ import annotations

import re

from repro.util.tables import Table

_CHUNK = re.compile(r"chunk\[\d+\]")

#: Kernel counter prefixes in display order, with the counter names
#: backing the normalized ``rounds``/``lane_rounds`` columns (kernels
#: count what is natural for them: the general kernel processes
#: occupied pairs, the gap scan row-rounds; the single-agent closed
#: form steps no round).
_KERNELS = (
    ("ring", "rounds", "lane_rounds"),
    ("single", "rounds", "lane_rounds"),
    ("sparse", "rounds", "lane_rounds"),
    ("limit", "rounds", "lane_rounds"),
    ("gaps", "rounds", "lane_rounds"),
    ("walk", "rounds", "lane_rounds"),
    ("general", "vector_rounds", "pair_rounds"),
)


def _phase_key(name: str) -> str:
    return _CHUNK.sub("chunk[*]", name)


def _phase_table(manifest: dict) -> Table:
    spans = manifest["spans"]
    groups: dict[str, list[dict]] = {}
    for span in spans:
        groups.setdefault(_phase_key(span["name"]), []).append(span)
    total = manifest["meta"].get("wall")
    if not isinstance(total, (int, float)) or total <= 0:
        total = sum(s["wall"] for s in spans if "/" not in s["name"])
    table = Table(
        columns=["phase", "count", "wall_s", "cpu_s", "share_%"],
        caption="per-phase wall clock (share of run wall; phases "
        "overlap hierarchically and across workers)",
        formats=[None, "d", ".3f", ".3f", ".1f"],
    )
    ranked = sorted(
        groups.items(), key=lambda kv: -sum(s["wall"] for s in kv[1])
    )
    for key, members in ranked:
        wall = sum(s["wall"] for s in members)
        cpu = sum(float(s.get("cpu", 0.0)) for s in members)
        table.add_row(
            key,
            len(members),
            wall,
            cpu,
            100.0 * wall / total if total else None,
        )
    return table


def _cache_table(counters: dict) -> Table | None:
    names = ("cache.hits", "cache.misses", "cache.corrupt", "cache.puts")
    if not any(name in counters for name in names):
        return None
    table = Table(
        columns=[
            "hits", "misses", "corrupt", "puts", "hit_%", "batches",
            "batch_cells",
        ],
        caption="result cache (batches/batch_cells count batched "
        "lookup_many probes)",
        formats=["d", "d", "d", "d", ".1f", "d", "d"],
    )
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    corrupt = counters.get("cache.corrupt", 0)
    probes = hits + misses + corrupt
    table.add_row(
        hits,
        misses,
        corrupt,
        counters.get("cache.puts", 0),
        100.0 * hits / probes if probes else None,
        counters.get("cache.batch_lookups", 0),
        counters.get("cache.batch_size", 0),
    )
    return table


def _kernel_seconds(spans: list[dict]) -> dict[str, float]:
    """Wall seconds per kernel prefix, summed over the ``kernel/<prefix>``
    spans the chunk computers open around each kernel call."""
    seconds: dict[str, float] = {}
    for span in spans:
        head, _, prefix = span["name"].rpartition("/")
        if head == "kernel" or head.endswith("/kernel"):
            seconds[prefix] = seconds.get(prefix, 0.0) + span["wall"]
    return seconds


def _kernel_table(manifest: dict) -> Table | None:
    counters = manifest["counters"]
    seconds = _kernel_seconds(manifest["spans"])
    table = Table(
        columns=[
            "kernel", "invocations", "lanes", "rounds", "lane_rounds",
            "Mlr/s", "covered", "truncated",
        ],
        caption="per-kernel counters (Mlr/s: million lane-rounds per "
        "second of the kernel's own kernel/<name> spans)",
        formats=[None, "d", "d", "d", "d", ".2f", "d", "d"],
    )
    rows = 0
    for prefix, rounds_name, lane_rounds_name in _KERNELS:
        if not any(key.startswith(f"{prefix}.") for key in counters):
            continue
        get = lambda name: counters.get(f"{prefix}.{name}")  # noqa: E731
        lane_rounds = get(lane_rounds_name)
        covered = get("lanes_covered")
        if covered is None:
            covered = get("lanes_resolved")
        truncated = get("lanes_truncated")
        wall = seconds.get(prefix, 0.0)
        table.add_row(
            prefix,
            get("invocations"),
            get("lanes"),
            get(rounds_name),
            lane_rounds,
            lane_rounds / wall / 1e6 if lane_rounds and wall > 0 else None,
            covered,
            truncated,
        )
        rows += 1
    return table if rows else None


#: Robustness counters in display order: what the supervising
#: dispatcher had to survive (emitted only when nonzero, so the table
#: appears only for runs that actually saw failure handling).
_ROBUSTNESS = (
    ("executor.retries", "chunk redispatches after failed attempts"),
    ("executor.timeouts", "chunk deadlines exceeded"),
    ("executor.chunk_failures", "chunks bisected after retry exhaustion"),
    ("executor.quarantined_cells", "cells abandoned with a failure record"),
    ("executor.pool_restarts", "worker pools torn down and rebuilt"),
    ("executor.serial_fallbacks", "degradations to in-process execution"),
    ("cache.quarantined", "corrupt store rows evicted at probe time"),
)


def _robustness_table(counters: dict) -> Table | None:
    present = [
        (name, description)
        for name, description in _ROBUSTNESS
        if counters.get(name)
    ]
    if not present:
        return None
    table = Table(
        columns=["event", "count", "meaning"],
        caption="fault handling (supervisor + store self-healing)",
        formats=[None, "d", None],
    )
    for name, description in present:
        table.add_row(name, counters[name], description)
    return table


def _worker_table(manifest: dict) -> Table | None:
    if not manifest["workers"]:
        return None
    table = Table(
        columns=["worker", "pid", "chunks", "wall_s", "cpu_s"],
        caption="workers (busy wall/CPU over chunk spans)",
        formats=["d", None, "d", ".3f", ".3f"],
    )
    for worker in manifest["workers"]:
        table.add_row(
            worker["worker"],
            worker["pid"],
            worker["chunks"],
            float(worker["wall"]),
            float(worker["cpu"]),
        )
    return table


def _counter_table(counters: dict) -> Table | None:
    if not counters:
        return None
    table = Table(
        columns=["counter", "value"],
        caption="all counters",
        formats=[None, "d"],
    )
    for name in sorted(counters):
        table.add_row(name, counters[name])
    return table


def render_stats(manifest: dict, path: str = "") -> str:
    """The full ``repro stats`` text for a loaded manifest."""
    meta = manifest["meta"]
    header = (
        f"trace {path or '<manifest>'}: run {manifest['run_id']} "
        f"(schema {manifest['schema']})"
    )
    described = [
        f"{key}={meta[key]}" for key in sorted(meta) if key != "wall"
    ]
    wall = meta.get("wall")
    if isinstance(wall, (int, float)):
        described.append(f"wall={wall:.2f}s")
    if described:
        header += "\n  " + "  ".join(described)
    parts = [header, _phase_table(manifest).render()]
    for table in (
        _cache_table(manifest["counters"]),
        _robustness_table(manifest["counters"]),
        _kernel_table(manifest),
        _worker_table(manifest),
        _counter_table(manifest["counters"]),
    ):
        if table is not None:
            parts.append(table.render())
    parts.extend(
        f"warning: leftover shard not merged: {name}"
        for name in manifest["leftover_shards"]
    )
    return "\n\n".join(parts)
