"""Host-speed probe: a fixed pure-Python loop, timed every few milliseconds.

The benchmark's host is a few cores of a shared machine. Other tenants
slow it down in phases of seconds to minutes: the same client can take
1.5-2x longer in a slow phase. CPU time rises with wall time, so no
clock of the process can tell a slow phase from slower code. The probe
measures the host's speed instead. A ``SIGALRM`` timer interrupts the
client every ``INTERVAL_S`` of wall time, and the handler times
``_spin``, a toy event loop that touches no repro code. A section of
the client then reads

    work_s   = wall time of the section - time spent in probes
    slowdown = mean probe time in the section / NOMINAL_PROBE_S
    norm_s   = work_s / slowdown

``norm_s`` is the section's wall time on a host where the probe takes
``NOMINAL_PROBE_S``. A change to repro moves ``work_s`` and leaves the
probe alone, so it moves ``norm_s`` by the same share. A slow phase of
the host stretches both, and ``norm_s`` barely moves (README.md gives
the measured residual).

Python runs the handler between bytecodes, so the probes interleave
with the workload at a fine grain wherever its time goes, and a phase
change inside a section is weighted by how long it lasted.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Wall seconds between two probes.
INTERVAL_S = 0.04
#: Events one probe's loop fires.
PROBE_STEPS = 1500
#: Seconds one probe takes at the nominal host speed: about its time in
#: a fast phase of the 2-core x86-64 VM (Python 3.11) the benchmark was
#: built on.
NOMINAL_PROBE_S = 0.0008


class _Event:
    __slots__ = ("time", "key", "fired")

    def __init__(self, time: float, key: int) -> None:
        self.time = time
        self.key = key
        self.fired = 0

    def reschedule(self, delay: float) -> float:
        self.fired += 1
        self.time += delay
        return self.time


def _spin(steps: int) -> float:
    """A toy event loop: a heap, a dict and small objects.

    The simulator's own mix of work, with none of its code. An integer
    loop tracked the host's slow phases worse: between a moderate and a
    slow phase, clients normalized by it read 5-12% higher, against
    -2% to +2% with this loop.
    """
    queue = [(key * 0.5, key, _Event(key * 0.5, key)) for key in range(16)]
    totals: dict[int, list] = {}
    acc = 0.0
    for seq in range(16, 16 + steps):
        now, _, event = heapq.heappop(queue)
        entry = totals.get(event.key)
        if entry is None:
            entry = totals[event.key] = [0, 0.0]
        entry[0] += 1
        entry[1] += now
        acc += entry[1] / entry[0]
        heapq.heappush(queue, (event.reschedule(1.0 + event.key % 5 * 0.1), seq, event))
    return acc


def monotonic() -> float:
    """CLOCK_MONOTONIC, which run.py stamps too (system-wide on Linux)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Times ``_spin`` every ``INTERVAL_S`` of wall time from ``start``."""

    def __init__(self) -> None:
        self.count = 0
        self.busy_s = 0.0

    def _fire(self, signum, frame) -> None:
        started = monotonic()
        _spin(PROBE_STEPS)
        self.busy_s += monotonic() - started
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # Ignored, not default: a default SIGALRM would end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mark(self) -> tuple[float, int, float]:
        """A point in time: (clock, probes so far, probe seconds so far)."""
        return (monotonic(), self.count, self.busy_s)


def section(start: tuple[float, int, float], end: tuple[float, int, float]) -> dict:
    """Raw, probe-free and normalized seconds between two marks."""
    probes = end[1] - start[1]
    probe_s = end[2] - start[2]
    work_s = (end[0] - start[0]) - probe_s
    slowdown = probe_s / probes / NOMINAL_PROBE_S if probes else 1.0
    return {
        "raw_s": end[0] - start[0],
        "probe_s": probe_s,
        "work_s": work_s,
        "probes": probes,
        "slowdown": slowdown,
        "norm_s": work_s / slowdown,
    }
