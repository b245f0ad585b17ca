"""Deterministic fault injection for the executor.

The rotor-router itself is the paper's robustness story: a
deterministic process whose guarantees survive perturbation.  This
module gives the *execution layer* the same property by making its
failure modes reproducible.  A :class:`FaultPlan` is a seeded,
declarative description of the faults one sweep should suffer — crash
a worker on a given chunk, raise inside ``compute_chunk`` for cells
whose hash matches a prefix, delay a chunk past its deadline, corrupt
a store row as it is written — so the supervising dispatcher in
:mod:`repro.sweep.executor` can be exercised identically from tests,
benchmarks and the CI chaos job.

Activation is strictly explicit: a plan reaches the executor either as
the ``faults=`` argument of ``run_cells``/``run_sweep`` or through the
:data:`FAULTS_ENV` environment hook (JSON), and a chunk payload only
carries a fault stanza when a plan is active.  Nothing here ever joins
a cell identity, cache key or result — faults change *when and where*
computation fails, never what a successful computation produces — and
every injected failure is deterministic in ``(chunk, attempt, cell
hash)``, so a chaos run is as replayable as a clean one.  The
supervisor's own retry/timeout knobs are plain ``max_retries`` and
``chunk_timeout`` arguments of ``run_cells``/``run_sweep`` (and the
``--max-retries``/``--chunk-timeout`` flags of ``repro sweep``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Sequence

#: Environment hook carrying a JSON :meth:`FaultPlan.to_dict` payload;
#: used by the CI chaos job to inject faults through the unmodified
#: CLI.  An unset/empty variable means no faults.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """A failure raised (or simulated) by an active :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a worker crash.

    A real worker crash (``os._exit``) only makes sense in a pool
    worker; when the faulted chunk runs in the dispatching process
    (``jobs <= 1`` or the serial degradation path) the crash is
    simulated as this exception so the supervisor's retry path is
    exercised instead of the test process dying.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of the faults to inject.

    Fields name *where* a fault fires; determinism comes from keying
    every fault on values that are themselves deterministic — the
    planner's chunk index, the supervisor's attempt counter, and cell
    config hashes:

    ``crash_chunks``
        Chunk indices whose **first** attempt kills its worker process
        with ``os._exit(1)`` (simulated as :class:`InjectedCrash` when
        the chunk runs in the dispatching process).  First-attempt-only
        keeps the fault one-shot: the redispatched attempt succeeds.
    ``poison_cells``
        ``config_hash`` prefixes of cells that raise
        :class:`InjectedFault` on **every** attempt of any chunk
        containing them — the permanent failure that drives the
        supervisor's bisection/quarantine path.  The raised message
        deliberately does not name the cell; isolation is the
        supervisor's job.
    ``delay_chunks``
        ``(chunk index, seconds)`` pairs: the chunk's first attempt
        sleeps before computing, which with ``chunk_timeout`` set
        exercises deadline preemption (the retry runs undelayed).
    ``flaky_chunks``
        ``(chunk index, failures)`` pairs: the chunk raises a transient
        :class:`InjectedFault` while ``attempt < failures``, then
        succeeds — the bounded-retry path without any poison cell.
    ``corrupt_rows``
        ``config_hash`` prefixes whose store rows are tampered with
        right after they are committed (see
        :func:`corrupt_rows_in_store`), exercising the store's
        corrupt-detection, quarantine and recompute path on the next
        run.

    ``seed`` labels the plan (and feeds the corruption bytes) so
    distinct chaos scenarios hash/log distinctly; the plan itself is
    already fully deterministic without it.
    """

    seed: int = 0
    crash_chunks: tuple[int, ...] = ()
    poison_cells: tuple[str, ...] = ()
    delay_chunks: tuple[tuple[int, float], ...] = ()
    flaky_chunks: tuple[tuple[int, int], ...] = ()
    corrupt_rows: tuple[str, ...] = ()

    @property
    def enabled(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(
            self.crash_chunks
            or self.poison_cells
            or self.delay_chunks
            or self.flaky_chunks
            or self.corrupt_rows
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "crash_chunks": list(self.crash_chunks),
            "poison_cells": list(self.poison_cells),
            "delay_chunks": [list(pair) for pair in self.delay_chunks],
            "flaky_chunks": [list(pair) for pair in self.flaky_chunks],
            "corrupt_rows": list(self.corrupt_rows),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            crash_chunks=tuple(
                int(c) for c in data.get("crash_chunks", ())
            ),
            poison_cells=tuple(data.get("poison_cells", ())),
            delay_chunks=tuple(
                (int(c), float(t)) for c, t in data.get("delay_chunks", ())
            ),
            flaky_chunks=tuple(
                (int(c), int(f)) for c, f in data.get("flaky_chunks", ())
            ),
            corrupt_rows=tuple(data.get("corrupt_rows", ())),
        )

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan named by :data:`FAULTS_ENV`, or None when unset.

        A malformed value fails loudly: silently running a chaos job
        without its faults would report vacuous success.
        """
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ValueError(
                f"{FAULTS_ENV} does not hold valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(f"{FAULTS_ENV} must hold a JSON object")
        return cls.from_dict(data)

    def stanza(self, chunk: int | None, parent_pid: int) -> dict:
        """The per-payload fault stanza shipped to ``compute_chunk``.

        ``chunk`` is the planner's chunk index (None for bisection
        sub-chunks, which chunk-keyed faults never target — bisection
        must converge); ``attempt`` is bumped in place by the
        supervisor on every redispatch; ``parent_pid`` lets the worker
        side tell a real pool worker (crash = ``os._exit``) from the
        dispatching process (crash = :class:`InjectedCrash`).
        """
        return {
            "plan": self.to_dict(),
            "chunk": chunk,
            "attempt": 0,
            "parent_pid": parent_pid,
        }

    def corrupt_matches(self, hashes: Sequence[str]) -> list[str]:
        """The subset of ``hashes`` whose store rows should be tampered."""
        return [
            h for h in hashes
            if any(h.startswith(prefix) for prefix in self.corrupt_rows)
        ]


def apply_chunk_faults(
    stanza: dict, cell_hashes: Sequence[str]
) -> None:
    """Fire the faults a chunk payload's stanza declares, if any.

    Called at the top of ``compute_chunk`` — in a pool worker or in
    the dispatching process — before any simulation work.  Order is
    fixed (crash, delay, flaky, poison) so stacked faults on one chunk
    resolve deterministically.
    """
    plan = FaultPlan.from_dict(stanza["plan"])
    chunk = stanza.get("chunk")
    attempt = int(stanza.get("attempt", 0))
    if chunk is not None and attempt == 0 and chunk in plan.crash_chunks:
        if os.getpid() == stanza.get("parent_pid"):
            raise InjectedCrash(
                f"injected crash on chunk {chunk} (simulated in-process)"
            )
        os._exit(1)  # a real worker crash: no cleanup, no exception
    if chunk is not None and attempt == 0:
        for delay_chunk, seconds in plan.delay_chunks:
            if delay_chunk == chunk:
                time.sleep(seconds)
    if chunk is not None:
        for flaky_chunk, failures in plan.flaky_chunks:
            if flaky_chunk == chunk and attempt < failures:
                raise InjectedFault(
                    f"injected transient failure on chunk {chunk} "
                    f"(attempt {attempt} of {failures} injected failures)"
                )
    if plan.poison_cells and any(
        h.startswith(prefix)
        for prefix in plan.poison_cells
        for h in cell_hashes
    ):
        # Deliberately does not say WHICH cell: the supervisor has to
        # isolate it by bisection, like any real poison cell.
        raise InjectedFault("injected poison cell in chunk")


def corrupt_rows_in_store(store, hashes: Sequence[str]) -> int:
    """Tamper with committed rows, the way external corruption would.

    Each row's metrics text is replaced with non-JSON bytes (WAL rules
    out torn writes, so tampering is the failure mode left).  The next
    probe reports ``corrupt`` and the executor quarantines and
    recomputes the cell.  Returns the number of rows tampered.
    """
    cursor = store._connection().executemany(
        "UPDATE cells SET metrics = ? WHERE hash = ?",
        [(f'{{"injected-corruption": {h}', h) for h in hashes],
    )
    return cursor.rowcount
