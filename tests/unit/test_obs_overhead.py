"""Tracing-disabled overhead guard (pay-for-what-you-use contract).

The D1 overhead results depend on the un-traced event loop staying fast,
so the observability layer must cost nothing when ``Scenario.trace`` is
None. The engine-level guard times the real :class:`Simulator` against
an inline replica of the pre-observability (seed) event loop — flag
cancellation, O(n) pending scan, no cancellation counters — driving an
identical closed callback chain, and asserts at most a 5% slowdown.

Methodology: the two loops alternate in tight pairs so machine drift
hits both equally, and the guard checks the *median* of per-pair ratios,
which is robust to scheduler noise on loaded CI machines.
"""

import gc
import heapq
import statistics
import time

from repro.sim.engine import Simulator


class _SeedEvent:
    """Event exactly as the seed had it: flag cancel, no bookkeeping."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time_us, seq, fn):
        self.time = time_us
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _SeedSimulator:
    """The event loop exactly as it was before the observability layer."""

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = 0
        self._events_processed = 0

    @property
    def events_processed(self):
        return self._events_processed

    def schedule(self, delay_us, fn):
        if delay_us < 0:
            raise ValueError("negative delay")
        event = _SeedEvent(self._now + delay_us, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def run(self):
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.fn()


N_EVENTS = 60_000
N_CHAINS = 8
PAIRS = 25
MAX_SLOWDOWN = 1.05


def _drive(sim):
    """Interleaved closed chains: every callback schedules its successor.

    Eight chains with slightly different periods keep a realistic handful
    of events pending at once (every actual scenario holds hundreds), the
    same drive the bench suite's calibration uses. A single chain would
    instead time the engine's degenerate one-pending-event case, which
    the engine core deliberately does not optimize for.
    """
    state = {"remaining": N_EVENTS}

    def make_tick(delay_us):
        def tick():
            state["remaining"] -= 1
            if state["remaining"] >= N_CHAINS:
                sim.schedule(delay_us, tick)

        return tick

    for i in range(N_CHAINS):
        sim.schedule(1.0 + 0.1 * i, make_tick(1.0 + 0.1 * i))
    sim.run()
    assert sim.events_processed == N_EVENTS


def _timed(factory):
    sim = factory()
    start = time.perf_counter()
    _drive(sim)
    return time.perf_counter() - start


def _measure_median_ratio():
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):  # warm up allocator and code caches
            _timed(_SeedSimulator)
            _timed(Simulator)
        ratios = [_timed(Simulator) / _timed(_SeedSimulator) for _ in range(PAIRS)]
    finally:
        gc.enable()
    return statistics.median(ratios)


def test_untraced_event_loop_within_5pct_of_seed_loop():
    # Retry on transient load spikes: a genuine hot-path regression slows
    # every attempt (the naive per-fire counter design measured a steady
    # 1.10-1.15x here), while scheduler noise clears on re-measurement.
    medians = []
    for _ in range(3):
        medians.append(_measure_median_ratio())
        if medians[-1] <= MAX_SLOWDOWN:
            return
    assert min(medians) <= MAX_SLOWDOWN, (
        f"un-traced event loop is {min(medians):.3f}x the seed loop "
        f"(best median of {len(medians)} attempts, {PAIRS} paired runs "
        f"each); the observability layer may have leaked work into the "
        f"hot path"
    )


def test_pending_count_costs_nothing_in_fire_path():
    """The O(1) pending count derives from the stored-entry count and two
    rare-path counters: firing an event performs no counter arithmetic
    beyond the storage decrement, and the count stays exact through heavy
    schedule/cancel/fire churn."""
    sim = Simulator()
    survivors = []
    for i in range(2_000):
        event = sim.schedule(float(i % 13) + 1.0, lambda: None)
        if i % 3 == 0:
            sim.cancel(event)
        else:
            survivors.append(event)
    for event in survivors[::5]:
        sim.cancel(event)
    expected = sum(1 for _, _, active in sim.pending_entries() if active)
    assert sim.pending_events() == expected
    sim.run()
    assert sim.pending_events() == 0
    # events_processed is derived, not counted: verify it matches the
    # number of callbacks that actually ran.
    cancelled = 2_000 // 3 + 1 + len(survivors[::5])
    assert sim.events_processed == 2_000 - cancelled
