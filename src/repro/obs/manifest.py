"""Trace sessions: per-worker JSONL shards merged into run manifests.

A :class:`TraceSession` (normally entered via :func:`trace_session`,
which the CLI's ``--trace PATH`` wraps around a command) owns three
things:

* the **main telemetry** — the ambient :class:`~repro.obs.telemetry.
  Telemetry` of the driving process, where executor spans
  (``cache.get``, ``plan``, ``aggregate``) and accounting counters
  land;
* the **shard directory** ``<path>.shards/`` — every worker process
  appends its chunks' events to its own
  ``<run id>.<pid>.events.jsonl`` file (one writer per file, so no
  locking), via :func:`traced_chunk` which the executor calls around
  each chunk;
* the **manifest** at ``<path>`` — a schema-versioned JSON-lines file
  rebuilt atomically at every :meth:`~TraceSession.checkpoint` (the
  executor checkpoints when ``run_cells`` returns, so a crashed
  multi-experiment run keeps everything merged so far).

The merge is deterministic: counters sum across shards and are
emitted name-sorted; spans follow in (main, shard-filename-sorted,
file-order) order with worker indices normalized to positions in the
sorted shard list.  Merging the same shard set twice yields a
byte-identical manifest; across *repeated runs* only the counter
section is reproducible (timings, pids and worker assignment of
chunks legitimately vary).  Shard files in the directory that do not
belong to the session's run id — leftovers of a killed run — are
reported as ``leftover_shard`` events, never merged.
"""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import Telemetry
from repro.util.timing import Stopwatch

#: Version stamped into (and required of) every manifest header.
MANIFEST_SCHEMA_VERSION = 1

_SHARD_SUFFIX = ".events.jsonl"

_SESSION: "TraceSession | None" = None


def current_session() -> "TraceSession | None":
    """The active :class:`TraceSession`, or None when not tracing."""
    return _SESSION


class TraceSession:
    """One traced run: a manifest path, a run id, and a shard dir."""

    def __init__(self, path: str, meta: dict | None = None) -> None:
        self.path = path
        self.run_id = uuid.uuid4().hex[:16]
        self.shard_dir = f"{path}.shards"
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        os.makedirs(self.shard_dir, exist_ok=True)
        self.telemetry = Telemetry()
        self.meta = dict(meta or {})
        self._chunks = 0
        self._watch = Stopwatch().start()
        self._closed = False

    def next_chunk_trace(self) -> dict:
        """The payload stanza telling a worker where to shard events.

        Chunk indices are assigned monotonically across every
        ``run_cells`` call of the session, so span names like
        ``chunk[7]`` are unique within one manifest.
        """
        info = {
            "shard_dir": self.shard_dir,
            "run_id": self.run_id,
            "chunk": self._chunks,
        }
        self._chunks += 1
        return info

    def checkpoint(self) -> str:
        """(Re)write the manifest from all current state, atomically."""
        return write_manifest(
            self.path,
            run_id=self.run_id,
            main=self.telemetry,
            shard_dir=self.shard_dir,
            meta={**self.meta, "wall": round(self._watch.split(), 6)},
        )

    def close(self) -> str:
        """Final checkpoint; then remove this run's merged shards."""
        if self._closed:
            return self.path
        self._closed = True
        path = self.checkpoint()
        for name in _shard_names(self.shard_dir):
            if name.startswith(f"{self.run_id}."):
                os.unlink(os.path.join(self.shard_dir, name))
        try:
            os.rmdir(self.shard_dir)
        except OSError:
            pass  # leftover shards of a crashed run stay visible
        return path


@contextmanager
def trace_session(
    path: str, meta: dict | None = None
) -> Iterator[TraceSession]:
    """Run a block under a new trace session.

    Installs the session's telemetry as the ambient context (so the
    executor and, under ``fork``, its workers see it) and guarantees a
    final manifest on exit, crash or not.
    """
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("a trace session is already active")
    session = TraceSession(path, meta=meta)
    _SESSION = session
    previous = _telemetry.set_active(session.telemetry)
    try:
        yield session
    finally:
        _telemetry.set_active(previous)
        _SESSION = None
        session.close()


def shard_path(shard_dir: str, run_id: str) -> str:
    """This process's shard file for ``run_id``."""
    return os.path.join(shard_dir, f"{run_id}.{os.getpid()}{_SHARD_SUFFIX}")


def append_shard(shard_dir: str, run_id: str, events: list[dict]) -> str:
    """Append ``events`` to this process's shard (one JSON per line)."""
    path = shard_path(shard_dir, run_id)
    text = "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in events
    )
    with open(path, "a") as handle:
        handle.write(text)
    return path


def traced_chunk(
    trace: dict, fn: Callable[[dict], object], payload: dict
) -> object:
    """Run one executor chunk under a fresh worker telemetry context.

    Wraps the work in ``chunk[i]`` / ``chunk[i]/compute`` spans, lets
    kernel counters land in the fresh context (the previous ambient
    context — the forked copy of the session's, in workers — is saved
    and restored), then appends the drained events to this process's
    shard file.
    """
    tel = Telemetry()
    previous = _telemetry.set_active(tel)
    try:
        with tel.span(
            f"chunk[{trace['chunk']}]", cells=len(payload["cells"])
        ):
            with tel.span("compute"):
                result = fn(payload)
    finally:
        _telemetry.set_active(previous)
    append_shard(trace["shard_dir"], trace["run_id"], tel.events())
    return result


def _shard_names(shard_dir: str) -> list[str]:
    """Shard files in ``shard_dir``, in sorted (merge) order.

    The deterministic-merge guarantee leans on this order: worker
    indices are positions in this list, so the listing is sorted at
    the ``os.listdir`` call site (never returned raw).
    """
    try:
        names = sorted(os.listdir(shard_dir))
    except OSError:
        return []
    return [name for name in names if name.endswith(_SHARD_SUFFIX)]


def write_manifest(
    path: str,
    run_id: str,
    main: Telemetry | None,
    shard_dir: str,
    meta: dict | None = None,
) -> str:
    """Merge main telemetry + shards into the manifest at ``path``.

    See the module docstring for the merge order and determinism
    guarantees.  The write is atomic (tmp file + rename), so a reader
    never sees a half-merged manifest.
    """
    counters: dict[str, int] = {}
    spans: list[dict] = []
    workers: list[dict] = []
    leftovers: list[str] = []
    if main is not None:
        for name, value in main.counters.items():
            counters[name] = counters.get(name, 0) + value
        spans.extend(
            {"event": "span", "worker": "main", **record}
            for record in main.spans
        )
    own_shards: list[str] = []
    for name in _shard_names(shard_dir):
        if name.startswith(f"{run_id}."):
            own_shards.append(name)
        else:
            leftovers.append(name)
    for index, name in enumerate(own_shards):
        pid = name[len(run_id) + 1:-len(_SHARD_SUFFIX)]
        chunks = 0
        wall = 0.0
        cpu = 0.0
        with open(os.path.join(shard_dir, name)) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                kind = event.get("event")
                if kind == "counters":
                    for cname, value in event["counters"].items():
                        counters[cname] = counters.get(cname, 0) + int(value)
                elif kind == "span":
                    record = dict(event)
                    record["worker"] = index
                    spans.append(record)
                    if "/" not in record.get("name", ""):
                        # Top-level (chunk) spans sum to the worker's
                        # busy time; nested spans would double-count.
                        chunks += 1
                        wall += float(record.get("wall", 0.0))
                        cpu += float(record.get("cpu", 0.0))
        workers.append(
            {
                "event": "worker",
                "worker": index,
                "pid": pid,
                "chunks": chunks,
                "wall": wall,
                "cpu": cpu,
            }
        )
    lines: list[dict] = [
        {
            "event": "manifest",
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": run_id,
            "meta": dict(meta or {}),
        }
    ]
    lines.extend(
        {"event": "counter", "name": name, "value": counters[name]}
        for name in sorted(counters)
    )
    lines.extend(spans)
    lines.extend(workers)
    lines.extend(
        {"event": "leftover_shard", "file": name} for name in leftovers
    )
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return path


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_manifest(path: str) -> dict:
    """Parse and validate a manifest; ``ValueError`` on any violation.

    Returns ``{"schema", "run_id", "meta", "counters", "spans",
    "workers", "leftover_shards"}`` with counters as one name->value
    dict.  This is the schema validator CI runs against the smoke
    trace, so it is strict: unknown event kinds, non-integer counters
    and malformed spans all fail loudly.
    """
    with open(path) as handle:
        raw = [line for line in handle.read().splitlines() if line.strip()]
    if not raw:
        raise ValueError("empty manifest")

    def parse(lineno: int, line: str) -> dict:
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not JSON ({exc})") from None
        if not isinstance(event, dict) or not isinstance(
            event.get("event"), str
        ):
            raise ValueError(f"line {lineno}: missing 'event' kind")
        return event

    header = parse(1, raw[0])
    if header["event"] != "manifest":
        raise ValueError("line 1: first event must be 'manifest'")
    if header.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema {header.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    if not isinstance(header.get("run_id"), str) or not header["run_id"]:
        raise ValueError("line 1: manifest requires a run_id")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("line 1: meta must be an object")
    out: dict = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "run_id": header["run_id"],
        "meta": meta,
        "counters": {},
        "spans": [],
        "workers": [],
        "leftover_shards": [],
    }
    for lineno, line in enumerate(raw[1:], start=2):
        event = parse(lineno, line)
        kind = event["event"]
        if kind == "counter":
            name = event.get("name")
            value = event.get("value")
            if (
                not isinstance(name, str)
                or not isinstance(value, int)
                or isinstance(value, bool)
            ):
                raise ValueError(
                    f"line {lineno}: counter requires a string name "
                    "and an integer value"
                )
            if name in out["counters"]:
                raise ValueError(
                    f"line {lineno}: duplicate counter {name!r}"
                )
            out["counters"][name] = value
        elif kind == "span":
            if not isinstance(event.get("name"), str):
                raise ValueError(f"line {lineno}: span requires a name")
            if not _is_number(event.get("wall")) or event["wall"] < 0:
                raise ValueError(
                    f"line {lineno}: span requires a non-negative wall"
                )
            if not _is_number(event.get("start")):
                raise ValueError(f"line {lineno}: span requires a start")
            if "worker" not in event:
                raise ValueError(f"line {lineno}: span requires a worker")
            out["spans"].append(event)
        elif kind == "worker":
            for field in ("worker", "pid", "chunks", "wall", "cpu"):
                if field not in event:
                    raise ValueError(
                        f"line {lineno}: worker requires {field!r}"
                    )
            out["workers"].append(event)
        elif kind == "leftover_shard":
            if not isinstance(event.get("file"), str):
                raise ValueError(
                    f"line {lineno}: leftover_shard requires a file"
                )
            out["leftover_shards"].append(event["file"])
        elif kind == "manifest":
            raise ValueError(f"line {lineno}: duplicate manifest header")
        else:
            raise ValueError(f"line {lineno}: unknown event kind {kind!r}")
    return out
