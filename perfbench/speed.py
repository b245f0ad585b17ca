"""Host speed probes: times that stay steady on a shared host.

On a shared host a core's speed drifts by tens of percent within
seconds (another tenant on its hyperthread sibling, say), in CPU time
as much as in wall time, and each core drifts on its own.  A
:class:`SpeedProbe` times a fixed loop, :func:`probe_loop`, after every
:data:`INTERVAL_S` of CPU time a process uses, in the thread that runs
the measured code, so the probes see the core that code runs on while
it runs there.  Worker processes forked while the probe runs probe
themselves too and leave their totals in a shared page, so the samples
of all processes weigh in by the CPU time each used.

:meth:`SpeedProbe.at_reference` scales a measured CPU time by
``REFERENCE_NS / mean probe time`` over the measured span: the time the
code would have taken on a core that runs the loop in
:data:`REFERENCE_NS`.  The package never sees the probe; its outputs
are checked to be the same with the probe running.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

#: CPU seconds between probes (about 1% of the probed time).
INTERVAL_S = 0.02

#: CPU nanoseconds of one :func:`probe_loop` on the reference core
#: (about its median on the 2-vCPU host the benchmark was defined on).
REFERENCE_NS = 150_000

#: Processes with a slot in the shared page: the driver and the workers
#: of every pool it starts.  Later workers go unprobed.
MAX_PROCESSES = 256

#: One slot: total probe nanoseconds and probe count of one process.
_SLOT = struct.Struct("qq")

_TABLE = {i: (i * 7919) % 4096 for i in range(4096)}


def probe_loop() -> int:
    """The fixed work a probe times: a chase through a small dict."""
    node = total = 0
    for _ in range(2000):
        node = _TABLE[node]
        total += node & 3
    return total


class SpeedProbe:
    """Probes core speed in this process and the workers it forks."""

    def __init__(self) -> None:
        self._shared = mmap.mmap(-1, _SLOT.size * MAX_PROCESSES)
        self._slot = 0
        self._forks = 0
        self._total_ns = self._count = 0
        self._running = False

    def _tick(self, signum, frame) -> None:
        start = time.thread_time_ns()
        probe_loop()
        self._total_ns += time.thread_time_ns() - start
        self._count += 1
        _SLOT.pack_into(
            self._shared, self._slot * _SLOT.size, self._total_ns, self._count
        )

    def _arm(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        # Restart interrupted system calls: the probe must not turn a
        # read or a wait of the package into an error.
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _before_fork(self) -> None:
        self._forks += 1

    def _after_fork_in_child(self) -> None:
        # Interval timers do not survive fork(); the handler does.
        if self._running and self._forks < MAX_PROCESSES:
            self._slot = self._forks
            self._total_ns = self._count = 0
            self._arm()

    def start(self) -> "SpeedProbe":
        self._running = True
        os.register_at_fork(
            before=self._before_fork,
            after_in_child=self._after_fork_in_child,
        )
        self._arm()
        return self

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[int, int]:
        """Probe totals over every process so far: a span's start."""
        total_ns = count = 0
        for slot in range(min(self._forks + 1, MAX_PROCESSES)):
            slot_ns, slot_count = _SLOT.unpack_from(
                self._shared, slot * _SLOT.size
            )
            total_ns += slot_ns
            count += slot_count
        return total_ns, count

    def at_reference(self, seconds: float, since: tuple[int, int]) -> float:
        """CPU ``seconds`` of the span since ``since``, at reference speed.

        A span too short for a probe is scaled by every probe so far.
        """
        total_ns, count = self.mark()
        if count > since[1]:
            total_ns, count = total_ns - since[0], count - since[1]
        if not count:
            return seconds
        return seconds * REFERENCE_NS * count / total_ns
