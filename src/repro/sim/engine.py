"""Event loop and simulated clock.

The engine is deliberately callback-based rather than coroutine-based:
callback scheduling through a priority structure is the fastest portable
way to run millions of events in pure Python, and the I/O pipeline
modelled here (submit -> throttle -> schedule -> device -> complete) maps
naturally onto chained callbacks.

The core is one binary heap of plain-list event entries
``[time, seq, fn, consumed]``, ordered by C-level list comparison. It
keeps the exact (time, seq) total order — events scheduled for the same
timestamp fire in FIFO scheduling order — and O(1) cancellation
accounting behind :meth:`Simulator.pending_events`. ``tests/differential/``
holds a plain single-pop heap loop as a reference oracle and asserts
bit-identical scenario summaries against it end to end.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator

# Entries are plain 4-item lists [time, seq, fn, consumed]: heapq
# compares them with C-level list comparison (seq is unique, so fn is
# never reached), which profiles ~1.8x faster than calling a Python
# __lt__ per comparison. Index of the consumed/cancelled flag:
_CANCELLED = 3


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Simulator:
    """A discrete-event simulator with a microsecond clock.

    Events scheduled for the same timestamp fire in FIFO scheduling
    order, which keeps runs deterministic. Handles returned by
    :meth:`schedule` are opaque; cancel and query them through
    :meth:`cancel` / :meth:`event_active`. A cancelled entry stays in
    the heap until the run loop pops and discards it.
    """

    def __init__(self) -> None:
        # Current simulated time in microseconds. A plain attribute, not
        # a property: it is read on every schedule/accounting step across
        # the stack, and a descriptor call there is measurable. Clients
        # must treat it as read-only.
        self.now = 0.0
        self._seq = 0
        self._heap: list[list] = []
        # Cancellation bookkeeping lives entirely on the rare paths:
        # cancel() bumps _cancelled_total, popping a cancelled event bumps
        # _cancelled_popped. Every derived counter below is then O(1)
        # arithmetic with zero per-fire cost.
        self._cancelled_total = 0
        self._cancelled_popped = 0

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (useful for perf diagnostics).

        Derived rather than counted: every scheduled event is either
        still in the heap, was popped cancelled, or fired. An entry
        leaves the heap before its callback runs, so a callback already
        counts as processed (the sampler snapshots this mid-run).
        """
        return self._seq - len(self._heap) - self._cancelled_popped

    def schedule_at(self, time_us: float, fn: Callable[[], Any]) -> list:
        """Schedule ``fn`` at an absolute simulated time."""
        return self.schedule(time_us - self.now, fn)

    def cancel(self, event: list) -> None:
        """Prevent a scheduled event from firing (no-op if already fired)."""
        if not event[_CANCELLED]:
            event[_CANCELLED] = True
            self._cancelled_total += 1

    def event_active(self, event: list) -> bool:
        """True while the handle's event is pending (not fired/cancelled)."""
        return not event[_CANCELLED]

    def schedule(self, delay_us: float, fn: Callable[[], Any]) -> list:
        """Schedule ``fn`` to run ``delay_us`` microseconds from now.

        Returns an event handle for :meth:`Simulator.cancel`. Negative
        delays are rejected: an event cannot fire in the past.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule event {delay_us}us in the past")
        entry = [self.now + delay_us, self._seq, fn, False]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def _run_core(self, end_time_us: float) -> None:
        """Fire entries in (time, seq) order up to ``end_time_us``."""
        heap = self._heap
        pop = heappop
        while heap:
            entry = pop(heap)
            t = entry[0]
            if t > end_time_us:
                # Popping first saves a peek per event; the one entry
                # past the end goes back (once per call) with its
                # (time, seq) key, so the firing order is unchanged.
                heappush(heap, entry)
                return
            if entry[3]:
                self._cancelled_popped += 1
            else:
                # The clock only moves for entries that fire: trailing
                # cancelled entries must not drag it forward, since
                # run()'s final clock is observable in summaries.
                self.now = t
                entry[3] = True  # consumed: cancel() is now a no-op
                entry[2]()

    def run_until(self, end_time_us: float) -> None:
        """Run events until the clock reaches ``end_time_us``.

        Events scheduled exactly at ``end_time_us`` are executed; the clock
        finishes at ``end_time_us`` even if all events drain earlier.
        """
        self._run_core(end_time_us)
        self.now = max(self.now, end_time_us)

    def run(self) -> None:
        """Run until no events remain."""
        self._run_core(float("inf"))

    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return len(self._heap) - (self._cancelled_total - self._cancelled_popped)

    def release(self) -> None:
        """Drop every pending event and its callback (a finished run).

        Counts as cancelling and draining each pending event, so
        ``events_processed`` is unchanged and ``pending_events()`` reads
        0. Dropping the callbacks also empties every event handle a
        component still holds, so no callback, and nothing it refers
        to, stays reachable through the heap.
        """
        heap = self._heap
        live = 0
        for entry in heap:
            if not entry[_CANCELLED]:
                entry[_CANCELLED] = True
                live += 1
            entry[2] = None
        self._cancelled_total += live
        self._cancelled_popped += len(heap)
        heap.clear()

    def pending_entries(self) -> Iterator[tuple[float, int, bool]]:
        """Debug view of the heap's entries as ``(time, seq, active)``.

        Includes cancelled-but-not-yet-popped entries with ``active=False``
        (their storage is reclaimed lazily by the run loop). Order is
        unspecified. For tests and diagnostics only — O(n).
        """
        for entry in self._heap:
            yield (entry[0], entry[1], not entry[3])
