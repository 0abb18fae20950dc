"""Event loop and simulated clock.

The engine is deliberately callback-based rather than coroutine-based:
callback scheduling through a priority structure is the fastest portable
way to run millions of events in pure Python, and the I/O pipeline
modelled here (submit -> throttle -> schedule -> device -> complete) maps
naturally onto chained callbacks.

The core is a calendar/slot wheel: plain-list event entries ordered by
C-level list comparison, a ring of ``WHEEL_SLOTS`` rotating slots that
buckets near-future events (far-future events wait in an overflow heap
and migrate as the wheel turns), and a same-timestamp batch-pop inner
loop that fires equal-time events without re-checking the stop
condition between them.

It keeps the exact (time, seq) total order — events scheduled for the
same timestamp fire in FIFO scheduling order — and O(1) cancellation
accounting behind :meth:`Simulator.pending_events`. ``tests/differential/``
holds a plain single-pop heap loop as a reference oracle and asserts
bit-identical scenario summaries against it end to end.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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
    :meth:`cancel` / :meth:`event_active`.

    Layout: time is divided into fixed-width slots numbered
    ``slot(t) = int(t * (1 / width))``. The wheel stores the next
    ``WHEEL_SLOTS`` slot numbers starting at ``_head`` in a ring of
    plain lists (``slots[s & mask]``); anything at or beyond the horizon
    waits in ``_overflow`` (a heap) and migrates into the ring as the
    head advances. ``slot()`` is monotone in ``t`` and a pure function
    of ``t`` alone — never of the current head — so equal timestamps
    always share a slot and slot order equals time order, with no float
    boundary corrections needed.

    A slot is heapified only when it becomes the drain target (append is
    O(1) until then); the drain loop then pops batches of equal-time
    entries, re-checking the stop condition once per timestamp instead
    of once per event.

    Geometry: ``WHEEL_SLOTS`` (a class constant) must be a power of two
    (slot lookup is a bit-mask); ``slot_width_us`` is the simulated-time
    width of one slot, so the wheel covers a ``WHEEL_SLOTS *
    slot_width_us`` horizon before events spill into the overflow heap.
    The (time, seq) order is exact at any width; the width only sets how
    often the head advances and how many entries share a slot.
    :class:`~repro.core.host.Host` scales it with the scenario's
    ``device_scale``, which stretches every service time by the same
    factor.
    """

    WHEEL_SLOTS = 256

    def __init__(self, slot_width_us: float = 4.0) -> None:
        nslots = self.WHEEL_SLOTS
        if nslots < 2 or nslots & (nslots - 1):
            raise SimulationError(
                f"WHEEL_SLOTS must be a power of two >= 2, got {nslots}"
            )
        if not (slot_width_us > 0.0):
            raise SimulationError(f"slot width must be positive, got {slot_width_us}")
        # Current simulated time in microseconds. A plain attribute, not
        # a property: it is read on every schedule/accounting step across
        # the stack, and a descriptor call there is measurable. Clients
        # must treat it as read-only.
        self.now = 0.0
        self._seq = 0
        # Cancellation bookkeeping lives entirely on the rare paths:
        # cancel() bumps _cancelled_total, popping a cancelled event bumps
        # _cancelled_popped. Every derived counter below is then O(1)
        # arithmetic with zero per-fire cost.
        self._cancelled_total = 0
        self._cancelled_popped = 0
        self._nslots = nslots
        self._mask = nslots - 1
        self._inv_width = 1.0 / slot_width_us
        self._slots: list[list] = [[] for _ in range(nslots)]
        self._overflow: list = []
        self._head = 0  # absolute slot number of the ring's drain slot
        # Entries physically stored (ring + overflow), including
        # cancelled-but-unpopped ones. Decremented exactly when an entry
        # is popped for disposal, *before* its callback runs, so
        # events_processed and pending_events already count the firing
        # event as consumed while its callback runs (the sampler
        # snapshots them mid-run).
        self._stored = 0
        # The slot currently being drained, if any: schedule() must
        # heappush into it (the drain loop peeks its min), while every
        # other slot takes a cheap append and is heapified lazily.
        self._active: list | None = None

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (useful for perf diagnostics).

        Derived rather than counted: every scheduled event is either
        still stored, was popped cancelled, or fired. Keeping this out
        of the fire loop pays for the consumed-flag store.
        """
        return self._seq - self._stored - self._cancelled_popped

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
        t = self.now + delay_us
        entry = [t, self._seq, fn, False]
        self._seq += 1
        self._stored += 1
        s = int(t * self._inv_width)
        head = self._head
        if s < head:
            # The head can outrun the clock when it jumps to a far-future
            # event; an earlier arrival then belongs in the drain slot,
            # where heap order restores time order.
            s = head
        d = s - head
        if d < self._nslots:
            slot = self._slots[s & self._mask]
            if slot is self._active:
                heappush(slot, entry)
            else:
                slot.append(entry)
        elif self._stored == 1:
            # Nothing else pending: re-anchor the head instead of
            # spilling a lone long-delay chain into the overflow heap
            # on every hop.
            self._head = s
            self._slots[s & self._mask].append(entry)
        else:
            heappush(self._overflow, entry)
        return entry

    def _advance(self) -> bool:
        """Rotate the wheel so the head slot holds the earliest entry.

        Called with the current head slot empty and entries pending
        somewhere. Returns False only if the structure is empty. After
        advancing, overflow entries that fell inside the new horizon are
        migrated into the ring (each entry migrates at most once).
        """
        overflow = self._overflow
        if self._stored > len(overflow):
            # Ring non-empty: scan forward to the next occupied slot. A
            # ring slot can only hold entries for one absolute slot
            # number inside the current horizon, so the first occupied
            # slot is exactly the earliest one.
            slots = self._slots
            mask = self._mask
            head = self._head
            while True:
                head += 1
                if slots[head & mask]:
                    break
            self._head = head
        elif overflow:
            self._head = int(overflow[0][0] * self._inv_width)
        else:
            return False
        limit = self._head + self._nslots
        inv_width = self._inv_width
        pop = heappop
        while overflow and int(overflow[0][0] * inv_width) < limit:
            entry = pop(overflow)
            s = int(entry[0] * inv_width)
            if s < self._head:
                s = self._head
            self._slots[s & self._mask].append(entry)
        return True

    def _run_core(self, end_time_us: float) -> None:
        """Drain entries in (time, seq) order up to ``end_time_us``.

        The inner batch loop fires every entry sharing one timestamp
        without re-checking the stop condition or re-storing the clock;
        entries scheduled *during* the batch for the same timestamp have
        larger seq values and are picked up by the same loop, so the
        (time, seq) order stays exact.
        """
        slots = self._slots
        mask = self._mask
        pop = heappop
        while self._stored:
            slot = slots[self._head & mask]
            if not slot:
                if not self._advance():
                    break
                slot = slots[self._head & mask]
            if len(slot) > 1:
                heapify(slot)
            self._active = slot
            while slot:
                t = slot[0][0]
                if t > end_time_us:
                    self._active = None
                    return
                while True:
                    entry = pop(slot)
                    self._stored -= 1
                    if entry[3]:
                        self._cancelled_popped += 1
                    else:
                        # The clock only moves for entries that fire:
                        # trailing cancelled entries must not drag it
                        # forward, since run()'s final clock is
                        # observable in summaries.
                        self.now = t
                        entry[3] = True  # consumed: cancel() is now a no-op
                        entry[2]()
                    if not slot or slot[0][0] != t:
                        break
            self._active = None

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
        return self._stored - (self._cancelled_total - self._cancelled_popped)

    def release(self) -> None:
        """Drop every pending event and its callback (a finished run).

        Counts as cancelling and draining each pending event, so
        ``events_processed`` is unchanged and ``pending_events()`` reads
        0. Dropping the callbacks also empties every event handle a
        component still holds, so no callback, and nothing it refers
        to, stays reachable through the wheel.
        """
        live = 0
        for entries in (*self._slots, self._overflow):
            for entry in entries:
                if not entry[_CANCELLED]:
                    entry[_CANCELLED] = True
                    live += 1
                entry[2] = None
            entries.clear()
        self._cancelled_total += live
        self._cancelled_popped += self._stored
        self._stored = 0
        self._active = None

    def pending_entries(self) -> Iterator[tuple[float, int, bool]]:
        """Debug view of ring + overflow entries as ``(time, seq, active)``.

        Includes cancelled-but-not-yet-popped entries with ``active=False``
        (their storage is reclaimed lazily by the run loop). Order is
        unspecified. For tests and diagnostics only — O(n).
        """
        for slot in self._slots:
            for entry in slot:
                yield (entry[0], entry[1], not entry[3])
        for entry in self._overflow:
            yield (entry[0], entry[1], not entry[3])
