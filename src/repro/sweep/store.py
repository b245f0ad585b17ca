"""The result store: every cached cell in one SQLite database file.

The executor caches each measured cell under its ``config_hash`` in
``<dir>/cells.db``, a WAL-mode SQLite database holding one
``cells(hash, config, metrics)`` table keyed by the full hash.  A
plan's probe is one table scan or a few indexed ``IN (...)`` queries,
a chunk's results commit in one transaction, and ``count()`` is an
indexed aggregate.  WAL mode lets concurrent processes read while one
writes, and a generous busy timeout serializes concurrent writers
instead of failing them.

A cache spec is a directory path; ``sqlite://<dir>`` names the same
store.  The rows are written only by the dispatching process (the
supervisor commits every chunk there), so one file carries all the
traffic; earlier versions kept a one-file-per-cell JSON tree and a
16-shard SQLite layout.  Opening a directory that still holds either
raises ``ValueError`` before anything is written, asking for the
directory to be deleted (its results are recomputable).

Every row is the canonical dump of a :class:`StoreEntry`, and identity
is checked where rows enter: ``put_many`` derives key and config text
from one identity dump, and WAL transactions rule out torn rows.
Probes therefore fetch only ``(hash, metrics)`` and report ``corrupt``
when the stored metrics do not parse back to a dict; the executor
quarantines (deletes) such rows and recomputes them.  ``verify_store``
(``repro cache verify [--repair]``) re-digests every stored row
eagerly, and ``store_info`` and ``vacuum_store`` back the rest of the
``repro cache`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

#: Bump when the stored entry payload layout or the SQLite row schema
#: changes, so a store written by older code is never silently read.
#: Pinned (with the row-identity surface below) by ``repro lint``'s
#: I001 lockfile check.
STORE_SCHEMA_VERSION = 1

#: The database file inside a cache directory.
STORE_FILE = "cells.db"

#: The spec prefix naming the store explicitly (``sqlite://<dir>``).
_SQLITE_PREFIX = "sqlite://"

#: Rows per ``IN (...)`` probe query, comfortably under SQLite's
#: default 999-variable limit.
_SELECT_CHUNK = 512


def _canonical(payload: dict) -> str:
    """The one canonical JSON dump used for identities and payloads.

    Identical to the serialization behind ``config_hash``
    (:meth:`repro.sweep.spec.SweepConfig.config_hash`), so a stored
    identity text can be hash-verified by re-digesting it directly.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StoreEntry:
    """One cached cell as the store serializes it.

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


def open_store(spec: str) -> "SqliteStore":
    """Open the result store a cache spec names.

    A plain path and ``sqlite://<path>`` name the same store; any
    other scheme (including the retired ``json://``) is rejected.
    """
    if spec.startswith(_SQLITE_PREFIX):
        spec = spec[len(_SQLITE_PREFIX):]
        if not spec:
            raise ValueError(
                f"cache spec {_SQLITE_PREFIX!r} names no directory"
            )
    elif "://" in spec:
        scheme = spec.split("://", 1)[0]
        raise ValueError(
            f"unknown store scheme {scheme!r}: a cache is a directory "
            "path or sqlite://DIR"
        )
    return SqliteStore(spec)


def _is_json_tree_prefix(directory: str, name: str) -> bool:
    """Whether ``name`` is a legacy ``<h[:2]>/`` directory of entries."""
    if len(name) != 2 or name.strip("0123456789abcdef"):
        return False
    try:
        names = sorted(os.listdir(os.path.join(directory, name)))
    except OSError:
        return False
    return any(entry.endswith(".json") for entry in names)


def _refuse_legacy_layout(directory: str) -> None:
    """Raise ``ValueError`` if ``directory`` holds an older store layout.

    A one-file-per-cell JSON tree or v1 ``shard-*.db`` files next to a
    fresh ``cells.db`` would be silently shadowed, so both are refused
    before anything is written.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return  # absent (or unreadable: connecting reports it)
    if any(
        name.startswith("shard-") and name.endswith(".db") for name in names
    ):
        layout = "a sharded result store"
    elif any(_is_json_tree_prefix(directory, name) for name in names):
        layout = "a JSON-tree result cache"
    else:
        return
    raise ValueError(
        f"{directory!r} holds {layout} of an older version; delete the "
        "directory (its results are recomputable)"
    )


@contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """``BEGIN IMMEDIATE`` … ``COMMIT``, rolled back on any exception."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


class SqliteStore:
    """The result store: one WAL-mode SQLite file, batched and indexed.

    ``<directory>/cells.db`` holds::

        CREATE TABLE cells (
            hash    TEXT PRIMARY KEY,   -- the cell's config_hash
            config  TEXT NOT NULL,      -- canonical identity JSON
            metrics TEXT NOT NULL       -- canonical metrics JSON
        )

    with :data:`STORE_SCHEMA_VERSION` pinned in ``PRAGMA
    user_version`` — a database written by a different store schema
    refuses to open rather than mis-serving rows.  Nothing touches the
    disk until the first write: probing, counting or quarantining a
    store that does not exist yet reads as empty and creates nothing.

    WAL journaling gives single-writer/many-readers concurrency;
    writers across processes serialize on SQLite's file lock with a
    30 s busy timeout, and ``put_many`` commits its rows as one
    ``BEGIN IMMEDIATE`` transaction.
    """

    def __init__(self, directory: str) -> None:
        _refuse_legacy_layout(directory)
        self.directory = directory
        self.path = os.path.join(directory, STORE_FILE)
        self._conn: sqlite3.Connection | None = None

    def _connection(self, create: bool = True) -> sqlite3.Connection | None:
        """The open database; None when absent and ``create`` is off."""
        if self._conn is not None:
            return self._conn
        if not create and not os.path.exists(self.path):
            return None
        os.makedirs(self.directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.isolation_level = None  # explicit BEGIN/COMMIT below
        # Switching a new database to WAL needs exclusive access, and
        # SQLite reports a concurrent switch as locked without waiting
        # on the busy timeout: retry within that timeout.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            with _transaction(conn):
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS cells ("
                    "hash TEXT PRIMARY KEY, "
                    "config TEXT NOT NULL, "
                    "metrics TEXT NOT NULL)"
                )
                conn.execute(
                    f"PRAGMA user_version = {int(STORE_SCHEMA_VERSION)}"
                )
        elif version != STORE_SCHEMA_VERSION:
            conn.close()
            raise ValueError(
                f"result store {self.path!r} carries schema {version}, "
                f"this code expects {STORE_SCHEMA_VERSION}; delete the "
                "directory (its results are recomputable)"
            )
        self._conn = conn
        return conn

    def lookup_many(
        self, cells: Sequence
    ) -> tuple[dict[str, dict], dict[str, str]]:
        """Batched probe: ``(metrics_by_hash, status_by_hash)``.

        Statuses are ``"hit"``, ``"miss"`` or ``"corrupt"``; corrupt
        rows are never served, they are recomputed like misses but
        counted separately so cache rot stays visible.
        """
        all_hashes = [cell.config_hash for cell in cells]
        ordered = sorted(set(all_hashes))
        found: dict[str, dict] = {}
        corrupt: list[str] = []
        conn = self._connection(create=False)
        if conn is not None and ordered:
            self._lookup_rows(conn, ordered, found, corrupt)
        if len(found) == len(ordered):
            return found, dict.fromkeys(all_hashes, "hit")
        statuses = dict.fromkeys(all_hashes, "miss")
        statuses.update(dict.fromkeys(found, "hit"))
        statuses.update(dict.fromkeys(corrupt, "corrupt"))
        return found, statuses

    def _lookup_rows(
        self,
        conn: sqlite3.Connection,
        hashes: list[str],
        found: dict[str, dict],
        corrupt: list[str],
    ) -> None:
        """Resolve the probed hashes into ``found``/``corrupt``.

        A probe covering most of the table reads it as one sequential
        scan (a warm rerun's shape — index seeks would cost more than
        the rows they skip); a sparse probe seeks via chunked ``IN``
        lists.  Either way rows arrive as two ``json_group_array``
        strings parsed with one ``json.loads`` each; per-row Python
        only runs on the rare corrupt-row fallback.
        """
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
            self._lookup_rows_one_by_one(conn, hashes, found, corrupt)
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

    def _lookup_rows_one_by_one(
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

    def put_many(self, items: Sequence[tuple[object, dict]]) -> None:
        """Write ``(cell, metrics)`` pairs in one transaction."""
        rows = []
        for config, metrics in items:
            entry = StoreEntry(config=config.identity(), metrics=metrics)
            rows.append((
                config.config_hash,
                _canonical(entry.config),
                _canonical(entry.metrics),
            ))
        self._put_rows(rows)

    def _put_rows(self, rows: Sequence[tuple[str, str, str]]) -> None:
        """One transaction inserting (hash, config, metrics) rows."""
        conn = self._connection()
        with _transaction(conn):
            conn.executemany(
                "INSERT OR REPLACE INTO cells (hash, config, metrics) "
                "VALUES (?, ?, ?)",
                rows,
            )

    def quarantine_many(self, hashes: Sequence[str]) -> int:
        """Delete bad rows so the next probe is a clean miss.

        The executor calls this with every hash ``lookup_many``
        reported ``corrupt`` before recomputing them; the recompute's
        ``put_many`` then writes a fresh row, so a store self-heals
        instead of re-flagging the same rot every run.  Returns the
        number of rows deleted.
        """
        conn = self._connection(create=False)
        if conn is None:
            return 0
        hashes = list(hashes)
        quarantined = 0
        with _transaction(conn):
            for start in range(0, len(hashes), _SELECT_CHUNK):
                chunk = hashes[start:start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                cursor = conn.execute(
                    f"DELETE FROM cells WHERE hash IN ({marks})", chunk
                )
                quarantined += cursor.rowcount
        return quarantined

    def count(self) -> int:
        """Stored rows — one indexed aggregate."""
        conn = self._connection(create=False)
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def vacuum(self) -> int:
        """``VACUUM`` the database; returns 1, or 0 when there is none."""
        conn = self._connection(create=False)
        if conn is None:
            return 0
        conn.execute("VACUUM")
        return 1

    def close(self) -> None:
        """Release the connection (idempotent)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()


# ----------------------------------------------------------------------
# tooling: verify, info, vacuum (the `repro cache` subcommand)
# ----------------------------------------------------------------------
def _entry_is_sound(config_hash: str, config, metrics) -> bool:
    """Whether a stored entry's identity re-digests to its key."""
    if not isinstance(config, dict) or not isinstance(metrics, dict):
        return False
    digest = hashlib.sha256(
        _canonical(config).encode("utf-8")
    ).hexdigest()
    return digest == config_hash


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one full-store integrity scan."""

    checked: int
    corrupt: int
    repaired: int

    @property
    def ok(self) -> bool:
        """Whether the store ended the scan free of bad entries."""
        return self.corrupt == self.repaired

    def summary_line(self) -> str:
        return (
            f"checked={self.checked} corrupt={self.corrupt} "
            f"repaired={self.repaired}"
        )


def verify_store(directory: str, repair: bool = False) -> VerifyReport:
    """Re-digest every stored row; optionally evict the bad ones.

    The deep counterpart of the probe-time corruption check: the
    canonical dump of each row's ``config`` must digest back to the
    hash it is keyed under, and its ``metrics`` must parse to a dict —
    exactly the invariant ``put_many`` enforces where rows enter, so a
    clean scan certifies the store serves only rows it would itself
    have written.  ``repair=True`` deletes each bad row so the next run
    recomputes it.  A missing store is vacuously clean and stays
    missing.  Backs ``repro cache verify``.
    """
    store = SqliteStore(directory)
    checked = 0
    bad: list[str] = []
    repaired = 0
    try:
        conn = store._connection(create=False)
        rows = (
            conn.execute(
                "SELECT hash, config, metrics FROM cells ORDER BY hash"
            )
            if conn is not None
            else ()
        )
        for row_hash, config_text, metrics_text in rows:
            checked += 1
            try:
                config = json.loads(config_text)
                metrics = json.loads(metrics_text)
            except ValueError:
                config = metrics = None
            if not _entry_is_sound(row_hash, config, metrics):
                bad.append(row_hash)
        if repair and bad:
            repaired = store.quarantine_many(bad)
    finally:
        store.close()
    return VerifyReport(checked=checked, corrupt=len(bad), repaired=repaired)


def store_info(directory: str) -> dict:
    """Entry count, size and schema of a result store (read-only)."""
    store = SqliteStore(directory)
    try:
        entries = store.count()
    finally:
        store.close()
    size = 0
    for suffix in ("", "-wal", "-shm"):
        try:
            size += os.path.getsize(store.path + suffix)
        except OSError:
            continue
    return {
        "bytes": size,
        "directory": directory,
        "entries": entries,
        "schema": STORE_SCHEMA_VERSION,
    }


def vacuum_store(directory: str) -> dict:
    """Compact a result store; returns what was done."""
    store = SqliteStore(directory)
    try:
        return {"vacuumed": store.vacuum()}
    finally:
        store.close()
