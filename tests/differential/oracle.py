"""Reference event loop the slot-wheel engine is checked against.

:class:`HeapSimulator` is the seed engine's single-pop loop: one binary
heap of ``[time, seq, fn, consumed]`` entries, popped one at a time, with
the same cancellation and ``pending_events()`` accounting as
:class:`repro.sim.engine.Simulator`. It exists only for tests. The
differential suite substitutes it for the wheel at the ``Host`` seam and
asserts byte-identical scenario summaries; the engine unit and property
suites hold it to the same contract they check the wheel against.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.sim.engine import SimulationError


class HeapSimulator:
    """Single-pop binary-heap core with the :class:`Simulator` interface."""

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: list[list] = []
        self._cancelled_total = 0
        self._cancelled_popped = 0

    @property
    def events_processed(self) -> int:
        return self._seq - len(self._heap) - self._cancelled_popped

    def schedule(self, delay_us: float, fn: Callable[[], Any]) -> list:
        if delay_us < 0:
            raise SimulationError(f"cannot schedule event {delay_us}us in the past")
        entry = [self.now + delay_us, self._seq, fn, False]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time_us: float, fn: Callable[[], Any]) -> list:
        return self.schedule(time_us - self.now, fn)

    def cancel(self, event: list) -> None:
        if not event[3]:
            event[3] = True
            self._cancelled_total += 1

    def event_active(self, event: list) -> bool:
        return not event[3]

    def _drain(self, end_time_us: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= end_time_us:
            entry = heappop(heap)
            if entry[3]:
                self._cancelled_popped += 1
                continue
            entry[3] = True  # consumed: cancel() is now a no-op
            self.now = entry[0]
            entry[2]()

    def run_until(self, end_time_us: float) -> None:
        self._drain(end_time_us)
        self.now = max(self.now, end_time_us)

    def run(self) -> None:
        self._drain(float("inf"))

    def run_until_profiled(self, end_time_us: float, profiler) -> None:
        # Profiles are not part of a ScenarioSummary, so the oracle only
        # reports its counters and does no per-event timing.
        self.run_until(end_time_us)
        profiler.note_engine(self)

    def pending_events(self) -> int:
        return len(self._heap) - (self._cancelled_total - self._cancelled_popped)

    def pending_entries(self) -> Iterator[tuple[float, int, bool]]:
        for entry in self._heap:
            yield (entry[0], entry[1], not entry[3])
