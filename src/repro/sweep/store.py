"""Pluggable result stores: the sweep cache behind a batched protocol.

The executor's original cache (PR 1) was one JSON file per cell —
portable, inspectable, trivially correct — but every probe paid one
``open``/``json.load``/identity-check per cell, ``__len__`` walked the
whole tree, and a warm ``repro all`` spent its wall clock in syscalls
rather than kernels.  At ROADMAP scale (walk-strategy zoos, general
limit-cycle sweeps: millions of cells) a file-per-cell tree is hopeless
for both latency and concurrent readers.

This module puts the cache behind a small **batched** protocol
(:class:`CacheStore`) with two interchangeable backends:

* :class:`JsonTreeStore` — the original ``<prefix>/<hash>.json`` tree,
  kept bit-compatible (existing cache directories keep working and the
  on-disk entry layout is unchanged).  Opening the store now
  garbage-collects stale ``.tmp.<pid>`` files left behind by crashed
  writers (a live writer's temp file — its pid still runs — is left
  alone), and ``count()`` keeps the tree walk but visits directories
  and files in sorted order.
* :class:`SqliteStore` — a sharded SQLite store: one WAL-mode database
  per ``config_hash`` prefix nibble, each holding a ``cells(hash,
  config, metrics)`` table keyed by the full hash.  A batched probe
  becomes a handful of indexed ``IN (...)`` queries; a chunk's results
  commit in one transaction per shard; ``count()`` is an indexed
  aggregate.  WAL mode lets concurrent processes read while one
  writes, and a generous busy timeout serializes concurrent writers
  instead of failing them.

Both backends serialize exactly the same entry payload — ``{"config":
<identity dict>, "metrics": <metrics dict>}`` canonicalized with
sorted keys (:class:`StoreEntry`) — and an entry is served only under
the hash its canonical identity digests to.  The JSON tree verifies
that on read (a half-written or edited file reports ``corrupt`` and
is recomputed, as it always has); the SQLite store verifies where
rows enter instead — ``put_many`` derives key and config text from
one identity dump, migration re-digests every entry, and WAL
transactions rule out torn rows — so its reads only re-check that the
stored metrics parse.  Reports are therefore bit-identical whichever
backend served them, which the backend-equivalence suite pins.

``migrate_json_to_sqlite`` streams a JSON tree into a SQLite store,
re-verifying each entry's identity hash as it goes; ``store_info``,
``vacuum_store`` and ``verify_store`` back the ``python -m repro
cache`` subcommand.  Corruption self-heals: a probe that reports a
``corrupt`` status leads the executor to ``quarantine_many`` the bad
entries (JSON: file set aside as ``.json.corrupt``; SQLite: row
deleted) before recomputing and overwriting them, and ``repro cache
verify [--repair]`` runs the same check eagerly over every stored row.

The store choice travels inside the cache *spec* string — a plain
directory path selects the JSON tree, a ``sqlite://<dir>`` (or
``json://<dir>``) prefix selects a backend explicitly — so every layer
between the CLI's ``--store`` flag and :func:`repro.sweep.executor.
run_cells` passes a single string through unchanged.
"""

from __future__ import annotations

import bisect
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

from repro import obs

#: Bump when the stored entry payload layout or the SQLite row schema
#: changes, so a store written by older code is never silently read.
#: Pinned (with the row-identity surface below) by ``repro lint``'s
#: I001 lockfile check.
STORE_SCHEMA_VERSION = 1

#: Store backends the spec syntax can name.
STORE_BACKENDS = ("json", "sqlite")

#: Hex digits of ``config_hash`` selecting a SQLite shard: one nibble
#: = 16 shard databases, enough write parallelism for a pool of
#: workers while keeping a cold ``info``/``count`` cheap.
SHARD_PREFIX_LEN = 1

#: Rows per ``IN (...)`` probe query, comfortably under SQLite's
#: default 999-variable limit.
_SELECT_CHUNK = 512

#: Rows per migration transaction.
_MIGRATE_BATCH = 1024


def _canonical(payload: dict) -> str:
    """The one canonical JSON dump used for identities and payloads.

    Identical to the serialization behind ``config_hash``
    (:meth:`repro.sweep.spec.SweepConfig.config_hash`), so a stored
    identity text can be hash-verified by re-digesting it directly.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StoreEntry:
    """One cached cell as both backends serialize it.

    The identity is the entry's full on-disk surface: the cell's
    canonical ``config`` identity dict plus its ``metrics`` payload.
    Changing these keys (or the dataclass fields) is a store-format
    change and must come with a :data:`STORE_SCHEMA_VERSION` bump —
    rule I001 pins this surface in ``cache_identity.lock``.
    """

    config: dict
    metrics: dict

    def identity(self) -> dict:
        return {
            "config": self.config,
            "metrics": self.metrics,
        }


class CacheStore(Protocol):
    """What the executor needs from a result store.

    ``lookup_many``/``put_many`` are the primary surface — the
    executor probes a whole plan and commits a whole chunk per call —
    with ``lookup``/``put``/``get`` kept as single-cell conveniences
    for tests and tooling.  Statuses are ``"hit"``, ``"miss"`` or
    ``"corrupt"``; corrupt entries are never served and never fail the
    sweep, they are recomputed like misses but counted separately so
    cache rot stays visible.
    """

    backend: str

    def lookup_many(
        self, cells: Sequence
    ) -> tuple[dict[str, dict], dict[str, str]]:
        """Batched probe: ``(metrics_by_hash, status_by_hash)``."""
        ...

    def put_many(self, items: Sequence[tuple[object, dict]]) -> None:
        """Batched write of ``(cell, metrics)`` pairs."""
        ...

    def quarantine_many(self, hashes: Sequence[str]) -> int:
        """Evict known-bad rows so corruption never lingers.

        The executor calls this with every hash ``lookup_many``
        reported ``corrupt`` before recomputing them: the JSON tree
        renames the bad entry file aside (``<hash>.json.corrupt``,
        preserved for forensics, invisible to probes), the SQLite
        store deletes the row.  The recompute's ``put_many`` then
        writes a fresh entry — quarantine-and-overwrite, so a store
        self-heals instead of re-flagging the same rot every run.
        Returns the number of entries actually quarantined.
        """
        ...

    def count(self) -> int:
        """Number of stored entries."""
        ...

    def close(self) -> None:
        """Release any backing resources (idempotent)."""
        ...


def parse_store_spec(spec: str) -> tuple[str, str]:
    """Split a cache spec into ``(backend, directory)``.

    A plain path is the JSON tree (backward compatible); a
    ``<backend>://`` prefix selects explicitly.
    """
    for backend in STORE_BACKENDS:
        prefix = f"{backend}://"
        if spec.startswith(prefix):
            directory = spec[len(prefix):]
            if not directory:
                raise ValueError(f"cache spec {spec!r} names no directory")
            return backend, directory
    if "://" in spec:
        scheme = spec.split("://", 1)[0]
        raise ValueError(
            f"unknown store backend {scheme!r}; known: "
            + ", ".join(STORE_BACKENDS)
        )
    return "json", spec


def format_store_spec(backend: str, directory: str) -> str:
    """The spec string selecting ``backend`` over ``directory``."""
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r}; known: "
            + ", ".join(STORE_BACKENDS)
        )
    return directory if backend == "json" else f"{backend}://{directory}"


def open_store(spec: str, backend: str | None = None) -> "CacheStore":
    """Open a result store from a cache spec (or an explicit backend)."""
    if backend is None:
        backend, directory = parse_store_spec(spec)
    else:
        directory = spec
        if backend not in STORE_BACKENDS:
            raise ValueError(
                f"unknown store backend {backend!r}; known: "
                + ", ".join(STORE_BACKENDS)
            )
    if backend == "sqlite":
        return SqliteStore(directory)
    return JsonTreeStore(directory)


def detect_backend(directory: str) -> str:
    """Which backend a cache directory on disk belongs to.

    A directory holding shard databases is a SQLite store; anything
    else (including an empty or absent directory) reads as the JSON
    tree, which is the backward-compatible default.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return "json"
    if any(
        name.startswith("shard-") and name.endswith(".db") for name in names
    ):
        return "sqlite"
    return "json"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a currently running process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OverflowError, ValueError, OSError):
        return False
    return True


class JsonTreeStore:
    """One JSON file per sweep cell, keyed by its config hash.

    The original executor cache, behind the batched protocol.  Entries
    are ``<hash prefix>/<hash>.json`` holding the cell's identity plus
    its metrics, so a cache directory stays portable, inspectable and
    safely shared between scenarios.  Writes go through a same-
    directory ``.tmp.<pid>`` file and an atomic ``os.replace``;
    opening the store sweeps any such temp file whose writer pid no
    longer runs (a crashed writer's leftovers), counting the sweep in
    the ``cache.tmp_swept`` telemetry counter.
    """

    backend = "json"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: Stale temp files garbage-collected by this open.
        self.swept_on_open = self.sweep_stale_tmp()
        if self.swept_on_open:
            obs.count("cache.tmp_swept", self.swept_on_open)

    def path(self, config_hash: str) -> str:
        return os.path.join(
            self.directory, config_hash[:2], f"{config_hash}.json"
        )

    def get(self, config) -> dict | None:
        """The cached metrics for ``config``, or None on a miss.

        Unreadable or mismatched entries count as misses (and are
        recomputed) rather than failing the sweep.
        """
        return self.lookup(config)[0]

    def lookup(self, config) -> tuple[dict | None, str]:
        """Cached metrics plus a probe status: hit, miss or corrupt.

        ``corrupt`` covers unreadable files, malformed JSON, identity
        mismatches and bad metric payloads — all recomputed exactly
        like misses, but telemetry counts them separately so cache rot
        is visible instead of silently re-simulated.
        """
        path = self.path(config.config_hash)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None, "miss"
        except (OSError, ValueError):
            return None, "corrupt"
        if (
            not isinstance(entry, dict)
            or entry.get("config") != config.identity()
        ):
            return None, "corrupt"
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            return None, "corrupt"
        return metrics, "hit"

    def put(self, config, metrics: dict) -> str:
        path = self.path(config.config_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = StoreEntry(config=config.identity(), metrics=metrics)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload.identity(), handle, sort_keys=True)
        os.replace(tmp, path)  # atomic: concurrent writers agree anyway
        return path

    def lookup_many(
        self, cells: Sequence
    ) -> tuple[dict[str, dict], dict[str, str]]:
        """Batched probe — one file open per cell (the tree's nature).

        The protocol surface matches :class:`SqliteStore`; the JSON
        backend simply cannot do better than per-cell I/O, which is
        exactly the bottleneck ``benchmarks/bench_store.py`` measures.
        """
        found: dict[str, dict] = {}
        statuses: dict[str, str] = {}
        for cell in cells:
            metrics, status = self.lookup(cell)
            statuses[cell.config_hash] = status
            if metrics is not None:
                found[cell.config_hash] = metrics
        return found, statuses

    def put_many(self, items: Sequence[tuple[object, dict]]) -> None:
        for config, metrics in items:
            self.put(config, metrics)

    def quarantine_many(self, hashes: Sequence[str]) -> int:
        """Move bad entry files aside (``<hash>.json.corrupt``).

        The quarantined copy keeps the evidence inspectable but is
        invisible to every probe and count (only ``*.json`` files are
        entries); a recompute's ``put`` writes a clean file under the
        original name.  Racing quarantiners agree (atomic rename).
        """
        quarantined = 0
        for config_hash in hashes:
            path = self.path(config_hash)
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                continue  # already quarantined or never written
            quarantined += 1
        return quarantined

    def count(self) -> int:
        """Stored entries, via a sorted (D002-clean) tree walk."""
        total = 0
        for _, dirs, files in os.walk(self.directory):
            dirs.sort()
            total += sum(name.endswith(".json") for name in sorted(files))
        return total

    def __len__(self) -> int:
        return self.count()

    def _tmp_files(self) -> Iterator[str]:
        """Paths of ``.tmp.<pid>`` leftovers, in sorted walk order."""
        for root, dirs, files in os.walk(self.directory):
            dirs.sort()
            for name in sorted(files):
                if ".tmp." in name:
                    yield os.path.join(root, name)

    def sweep_stale_tmp(self) -> int:
        """Remove temp files whose writer process is gone.

        A ``.tmp.<pid>`` file whose pid still runs belongs to a live
        concurrent writer and is left untouched; one with an unknown
        or dead pid is a crashed writer's leftover and is unlinked.
        Returns the number of files removed.
        """
        swept = 0
        for path in self._tmp_files():
            suffix = path.rsplit(".tmp.", 1)[-1]
            try:
                pid = int(suffix)
            except ValueError:
                continue  # not our naming scheme; leave it alone
            if _pid_alive(pid):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue  # raced with another sweeper
            swept += 1
        return swept

    def count_tmp(self) -> int:
        """Leftover temp files currently present (for ``cache info``)."""
        return sum(1 for _ in self._tmp_files())

    def close(self) -> None:
        return None


class SqliteStore:
    """Sharded SQLite result store: batched, indexed, WAL-concurrent.

    ``shard-<nibble>.db`` databases (one per leading ``config_hash``
    hex digit) each hold::

        CREATE TABLE cells (
            hash    TEXT PRIMARY KEY,   -- the cell's config_hash
            config  TEXT NOT NULL,      -- canonical identity JSON
            metrics TEXT NOT NULL       -- canonical metrics JSON
        )

    with :data:`STORE_SCHEMA_VERSION` pinned in ``PRAGMA
    user_version`` — a shard written by a different store schema
    refuses to open rather than mis-serving rows.  Config integrity is
    enforced where rows enter the store: ``put_many`` derives key and
    ``config`` text from the same canonical identity dump, and
    migration re-digests every entry — while WAL journaling rules out
    the JSON tree's half-written-file failure mode entirely.  Probes
    therefore fetch only ``(hash, metrics)`` and report ``corrupt``
    when the stored metrics text does not parse back to a dict, which
    keeps the batched warm read free of per-row identity dumps.

    WAL journaling gives single-writer/many-readers concurrency per
    shard; writers across processes serialize on SQLite's file lock
    with a 30 s busy timeout.  ``put_many`` groups rows by shard and
    commits each group as one ``BEGIN IMMEDIATE`` transaction.
    """

    backend = "sqlite"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._conns: dict[str, sqlite3.Connection] = {}

    # -- shard plumbing -------------------------------------------------
    def shard_of(self, config_hash: str) -> str:
        return config_hash[:SHARD_PREFIX_LEN]

    def shard_path(self, shard: str) -> str:
        return os.path.join(self.directory, f"shard-{shard}.db")

    def shards_on_disk(self) -> list[str]:
        """Shard ids with a database file present, sorted."""
        shards = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("shard-") and name.endswith(".db"):
                shards.append(name[len("shard-"):-len(".db")])
        return shards

    def _conn(self, shard: str) -> sqlite3.Connection:
        conn = self._conns.get(shard)
        if conn is not None:
            return conn
        path = self.shard_path(shard)
        conn = sqlite3.connect(path, timeout=30.0)
        conn.isolation_level = None  # explicit BEGIN/COMMIT below
        # Switching a new shard to WAL needs exclusive access, and SQLite
        # reports a concurrent switch as locked without waiting on the
        # busy timeout: retry within that timeout.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS cells ("
                    "hash TEXT PRIMARY KEY, "
                    "config TEXT NOT NULL, "
                    "metrics TEXT NOT NULL)"
                )
                conn.execute(
                    f"PRAGMA user_version = {int(STORE_SCHEMA_VERSION)}"
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        elif version != STORE_SCHEMA_VERSION:
            conn.close()
            raise ValueError(
                f"store shard {path!r} carries schema {version}, this "
                f"code expects {STORE_SCHEMA_VERSION}; re-create or "
                "migrate the cache"
            )
        self._conns[shard] = conn
        return conn

    # -- protocol surface -----------------------------------------------
    def lookup_many(
        self, cells: Sequence
    ) -> tuple[dict[str, dict], dict[str, str]]:
        # The whole probe runs as a few C-level passes per shard: sort
        # the hashes once and slice contiguous shard ranges with bisect
        # (instead of a per-cell grouping loop), fetch each shard's
        # rows as TWO ``json_group_array`` strings (no per-row tuple
        # materialization), then parse all metrics with one
        # ``json.loads``.  Per-row Python only runs on the rare
        # corrupt-row fallback.
        all_hashes = [cell.config_hash for cell in cells]
        ordered = sorted(set(all_hashes))
        found: dict[str, dict] = {}
        corrupt: list[str] = []
        for shard in self.shards_on_disk():
            # Hashes sharing the shard prefix form one contiguous run
            # of the sorted list: [shard, next-prefix).
            lo = bisect.bisect_left(ordered, shard)
            hi = bisect.bisect_left(
                ordered, shard[:-1] + chr(ord(shard[-1]) + 1)
            )
            if lo < hi:
                self._lookup_shard(shard, ordered[lo:hi], found, corrupt)
        if len(found) == len(ordered):
            statuses = dict.fromkeys(all_hashes, "hit")
        else:
            statuses = dict.fromkeys(all_hashes, "miss")
            statuses.update(dict.fromkeys(found, "hit"))
            statuses.update(dict.fromkeys(corrupt, "corrupt"))
        return found, statuses

    def _lookup_shard(
        self,
        shard: str,
        hashes: list[str],
        found: dict[str, dict],
        corrupt: list[str],
    ) -> None:
        """Resolve one shard's probed hashes into ``found``/``corrupt``.

        A probe covering most of the shard reads it as one sequential
        scan (a warm rerun's shape — index seeks would cost more than
        the rows they skip); a sparse probe seeks via chunked ``IN``
        lists.  Either way rows arrive as two aggregated JSON arrays.
        """
        conn = self._conn(shard)
        arrays: list[tuple[str, str]] = []
        scanned = False
        try:
            total = conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
            if 2 * len(hashes) >= total:
                scanned = True
                arrays.append(
                    conn.execute(
                        "SELECT json_group_array(hash), "
                        "json_group_array(json(metrics)) FROM cells"
                    ).fetchone()
                )
            else:
                for start in range(0, len(hashes), _SELECT_CHUNK):
                    chunk = hashes[start:start + _SELECT_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    arrays.append(
                        conn.execute(
                            "SELECT json_group_array(hash), "
                            "json_group_array(json(metrics)) FROM cells "
                            f"WHERE hash IN ({marks})",
                            chunk,
                        ).fetchone()
                    )
            got_hashes = json.loads(
                f"[{','.join(a[1:-1] for a, _ in arrays if a != '[]')}]"
            )
            got_metrics = json.loads(
                f"[{','.join(m[1:-1] for _, m in arrays if m != '[]')}]"
            )
        except (sqlite3.OperationalError, ValueError):
            # A stored metrics text that is not valid JSON aborts the
            # aggregate (sqlite's json() raises) — and some builds lack
            # the JSON functions entirely.  Re-fetch raw rows and sort
            # the good from the corrupt one by one.
            self._lookup_shard_rows(conn, hashes, found, corrupt)
            return
        if scanned:
            probe = set(hashes)
            entries = {
                h: m for h, m in zip(got_hashes, got_metrics) if h in probe
            }
        else:
            entries = dict(zip(got_hashes, got_metrics))
        if all(type(m) is dict for m in entries.values()):
            found.update(entries)
        else:
            for row_hash, metrics in entries.items():
                if type(metrics) is dict:
                    found[row_hash] = metrics
                else:
                    corrupt.append(row_hash)

    def _lookup_shard_rows(
        self,
        conn: sqlite3.Connection,
        hashes: list[str],
        found: dict[str, dict],
        corrupt: list[str],
    ) -> None:
        """Row-at-a-time fallback that isolates unparseable rows."""
        for start in range(0, len(hashes), _SELECT_CHUNK):
            chunk = hashes[start:start + _SELECT_CHUNK]
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT hash, metrics FROM cells WHERE hash IN ({marks})",
                chunk,
            ).fetchall()
            for row_hash, metrics_text in rows:
                try:
                    metrics = json.loads(metrics_text)
                except ValueError:
                    corrupt.append(row_hash)
                    continue
                if type(metrics) is dict:
                    found[row_hash] = metrics
                else:
                    corrupt.append(row_hash)

    def lookup(self, config) -> tuple[dict | None, str]:
        found, statuses = self.lookup_many([config])
        return (
            found.get(config.config_hash),
            statuses[config.config_hash],
        )

    def get(self, config) -> dict | None:
        return self.lookup(config)[0]

    def put_many(self, items: Sequence[tuple[object, dict]]) -> None:
        by_shard: dict[str, list[tuple[str, str, str]]] = {}
        for config, metrics in items:
            entry = StoreEntry(config=config.identity(), metrics=metrics)
            by_shard.setdefault(self.shard_of(config.config_hash), []).append(
                (
                    config.config_hash,
                    _canonical(entry.config),
                    _canonical(entry.metrics),
                )
            )
        for shard in sorted(by_shard):
            self._put_rows(shard, by_shard[shard])

    def _put_rows(
        self, shard: str, rows: Sequence[tuple[str, str, str]]
    ) -> None:
        """One transaction inserting (hash, config, metrics) rows."""
        conn = self._conn(shard)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT OR REPLACE INTO cells (hash, config, metrics) "
                "VALUES (?, ?, ?)",
                rows,
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def put(self, config, metrics: dict) -> None:
        self.put_many([(config, metrics)])

    def quarantine_many(self, hashes: Sequence[str]) -> int:
        """Delete bad rows so the next probe is a clean miss.

        WAL journaling already rules out torn rows, so a corrupt row
        means external tampering; unlike the JSON tree there is no
        per-entry file to set aside, and the deleted row's replacement
        arrives with the recompute's ``put_many``.
        """
        by_shard: dict[str, list[str]] = {}
        for config_hash in hashes:
            by_shard.setdefault(self.shard_of(config_hash), []).append(
                config_hash
            )
        quarantined = 0
        for shard in sorted(by_shard):
            if not os.path.exists(self.shard_path(shard)):
                continue
            conn = self._conn(shard)
            conn.execute("BEGIN IMMEDIATE")
            try:
                for start in range(0, len(by_shard[shard]), _SELECT_CHUNK):
                    chunk = by_shard[shard][start:start + _SELECT_CHUNK]
                    marks = ",".join("?" * len(chunk))
                    cursor = conn.execute(
                        f"DELETE FROM cells WHERE hash IN ({marks})", chunk
                    )
                    quarantined += cursor.rowcount
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        return quarantined

    def count(self) -> int:
        """Stored rows across shards — one indexed aggregate each."""
        total = 0
        for shard in self.shards_on_disk():
            conn = self._conn(shard)
            total += conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        return total

    def __len__(self) -> int:
        return self.count()

    def vacuum(self) -> int:
        """``VACUUM`` every shard; returns the number vacuumed."""
        shards = self.shards_on_disk()
        for shard in shards:
            self._conn(shard).execute("VACUUM")
        return len(shards)

    def close(self) -> None:
        conns, self._conns = self._conns, {}
        for conn in conns.values():
            conn.close()


# ----------------------------------------------------------------------
# tooling: migration, info, vacuum (the `repro cache` subcommand)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one JSON-tree → SQLite migration."""

    migrated: int
    corrupt: int

    def summary_line(self) -> str:
        return f"migrated={self.migrated} corrupt={self.corrupt}"


def _iter_json_entries(directory: str) -> Iterator[tuple[str, str]]:
    """``(config_hash, path)`` of every entry file, sorted walk order."""
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".json"):
                yield name[:-len(".json")], os.path.join(root, name)


def migrate_json_to_sqlite(
    source_dir: str, dest_dir: str, batch: int = _MIGRATE_BATCH
) -> MigrationReport:
    """Stream a JSON tree into a SQLite store, verifying each entry.

    Every entry is re-verified on the way through: the canonical dump
    of its stored identity must digest back to its filename hash, and
    the payload must carry dict-shaped ``config`` and ``metrics``
    blocks.  Entries failing either check are counted ``corrupt`` and
    skipped — a migrated store never contains rows the source tree
    would not itself have served.  Rows commit in batches of
    ``batch`` (one transaction per shard per batch).
    """
    import hashlib

    source = JsonTreeStore(source_dir)
    dest = SqliteStore(dest_dir)
    migrated = corrupt = 0
    pending: dict[str, list[tuple[str, str, str]]] = {}
    pending_rows = 0

    def flush() -> None:
        nonlocal pending_rows
        for shard in sorted(pending):
            dest._put_rows(shard, pending[shard])
        pending.clear()
        pending_rows = 0

    try:
        for config_hash, path in _iter_json_entries(source.directory):
            try:
                with open(path) as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                corrupt += 1
                continue
            config = entry.get("config") if isinstance(entry, dict) else None
            metrics = entry.get("metrics") if isinstance(entry, dict) else None
            if not isinstance(config, dict) or not isinstance(metrics, dict):
                corrupt += 1
                continue
            config_text = _canonical(config)
            digest = hashlib.sha256(
                config_text.encode("utf-8")
            ).hexdigest()
            if digest != config_hash:
                corrupt += 1
                continue
            pending.setdefault(dest.shard_of(config_hash), []).append(
                (config_hash, config_text, _canonical(metrics))
            )
            pending_rows += 1
            migrated += 1
            if pending_rows >= batch:
                flush()
        flush()
    finally:
        dest.close()
    return MigrationReport(migrated=migrated, corrupt=corrupt)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one full-store integrity scan."""

    backend: str
    checked: int
    corrupt: int
    repaired: int

    @property
    def ok(self) -> bool:
        """Whether the store ended the scan free of bad entries."""
        return self.corrupt == self.repaired

    def summary_line(self) -> str:
        return (
            f"backend={self.backend} checked={self.checked} "
            f"corrupt={self.corrupt} repaired={self.repaired}"
        )


def _entry_is_sound(config_hash: str, config, metrics) -> bool:
    """Whether a stored entry's identity re-digests to its key."""
    import hashlib

    if not isinstance(config, dict) or not isinstance(metrics, dict):
        return False
    digest = hashlib.sha256(
        _canonical(config).encode("utf-8")
    ).hexdigest()
    return digest == config_hash


def verify_store(directory: str, repair: bool = False) -> VerifyReport:
    """Re-digest every stored row; optionally evict the bad ones.

    The deep counterpart of the probe-time corruption checks: every
    entry of either backend is re-verified end to end — the canonical
    dump of its stored ``config`` must digest back to the hash it is
    keyed under, and its ``metrics`` must parse to a dict — exactly
    the invariant ``put_many``/migration enforce at write time, so a
    clean scan certifies the store serves only rows it would itself
    have written.  ``repair=True`` quarantines each bad entry through
    the backend's own semantics (JSON: file set aside as
    ``.json.corrupt``; SQLite: row deleted) so the next sweep
    recomputes and overwrites it.  Backs ``repro cache verify``.
    """
    backend = detect_backend(directory)
    checked = corrupt = repaired = 0
    if backend == "json":
        store = JsonTreeStore(directory)
        for config_hash, path in _iter_json_entries(store.directory):
            checked += 1
            sound = False
            try:
                with open(path) as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                entry = None
            if isinstance(entry, dict):
                sound = _entry_is_sound(
                    config_hash, entry.get("config"), entry.get("metrics")
                )
            if sound:
                continue
            corrupt += 1
            if repair:
                repaired += store.quarantine_many([config_hash])
        return VerifyReport(
            backend=backend, checked=checked, corrupt=corrupt,
            repaired=repaired,
        )
    store = SqliteStore(directory)
    try:
        bad: list[str] = []
        for shard in store.shards_on_disk():
            conn = store._conn(shard)
            for row_hash, config_text, metrics_text in conn.execute(
                "SELECT hash, config, metrics FROM cells ORDER BY hash"
            ):
                checked += 1
                try:
                    config = json.loads(config_text)
                    metrics = json.loads(metrics_text)
                except ValueError:
                    config = metrics = None
                if not _entry_is_sound(row_hash, config, metrics):
                    bad.append(row_hash)
        corrupt = len(bad)
        if repair and bad:
            repaired = store.quarantine_many(bad)
    finally:
        store.close()
    return VerifyReport(
        backend=backend, checked=checked, corrupt=corrupt, repaired=repaired
    )


def store_info(directory: str) -> dict:
    """Backend, entry count and layout facts of a cache directory."""
    backend = detect_backend(directory)
    info: dict = {"backend": backend, "directory": directory}
    size = 0
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            try:
                size += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    info["bytes"] = size
    if backend == "sqlite":
        store = SqliteStore(directory)
        try:
            info["entries"] = store.count()
            info["shards"] = len(store.shards_on_disk())
            info["schema"] = STORE_SCHEMA_VERSION
        finally:
            store.close()
    else:
        store = JsonTreeStore(directory)
        info["entries"] = store.count()
        info["tmp_files"] = store.count_tmp()
    return info


def vacuum_store(directory: str) -> dict:
    """Compact a cache directory; returns what was done.

    SQLite stores get a per-shard ``VACUUM``; the JSON tree's
    equivalent maintenance is sweeping crashed writers' temp files
    (which store opening already performs — this reports the count).
    """
    backend = detect_backend(directory)
    if backend == "sqlite":
        store = SqliteStore(directory)
        try:
            return {"backend": backend, "vacuumed_shards": store.vacuum()}
        finally:
            store.close()
    store = JsonTreeStore(directory)  # opening sweeps stale temp files
    return {"backend": backend, "swept_tmp": store.swept_on_open}
