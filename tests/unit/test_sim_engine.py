"""Unit tests for the discrete-event engine.

Every test runs via the ``make_sim`` fixture against the slot wheel, a
tiny wheel whose events constantly cross the horizon, and the
test-local heap oracle (``tests/differential/oracle.py``, the seed's
single-pop loop): the engine contract is identical by design, the
reference is held to the same contract it checks, and
``tests/differential/`` extends that claim to whole scenarios.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator

from tests.differential.oracle import HeapSimulator


class _TinyWheel(Simulator):
    # A deliberately tiny wheel: events constantly cross the horizon into
    # the overflow heap and migrate back, exercising the rotation paths.
    WHEEL_SLOTS = 4
    WHEEL_WIDTH_US = 2.5


SIMULATORS = {
    "batched": Simulator,
    "batched-tiny-wheel": _TinyWheel,
    # The seed's heap loop, kept only as the test-local oracle.
    "legacy": HeapSimulator,
}


@pytest.fixture(params=sorted(SIMULATORS), name="make_sim")
def _make_sim(request):
    return SIMULATORS[request.param]


class TestEngineSelection:
    """Wheel geometry is selected by subclassing; a bad one fails fast."""

    def test_bad_wheel_geometry_rejected(self):
        class SixSlots(Simulator):
            WHEEL_SLOTS = 6

        class ZeroWidth(Simulator):
            WHEEL_WIDTH_US = 0.0

        with pytest.raises(SimulationError):
            SixSlots()
        with pytest.raises(SimulationError):
            ZeroWidth()


class TestScheduling:
    def test_clock_starts_at_zero(self, make_sim):
        assert make_sim().now == 0.0

    def test_event_fires_at_scheduled_time(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.0]

    def test_events_fire_in_time_order(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(30.0, lambda: seen.append("c"))
        sim.schedule(10.0, lambda: seen.append("a"))
        sim.schedule(20.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fire_in_fifo_order(self, make_sim):
        sim = make_sim()
        seen = []
        for tag in ("first", "second", "third"):
            sim.schedule(5.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_negative_delay_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_zero_delay_allowed(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0]

    def test_schedule_at_absolute_time(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule_at(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]

    def test_nested_scheduling_from_callback(self, make_sim):
        sim = make_sim()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(5.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert seen == [("outer", 10.0), ("inner", 15.0)]

    def test_same_timestamp_event_scheduled_mid_batch_fires_last(self, make_sim):
        # A zero-delay event scheduled from inside a same-timestamp batch
        # gets a larger seq and must still fire within that timestamp,
        # after the already-scheduled members.
        sim = make_sim()
        seen = []
        sim.schedule(5.0, lambda: (seen.append("a"), sim.schedule(0.0, lambda: seen.append("d"))))
        sim.schedule(5.0, lambda: seen.append("b"))
        sim.schedule(5.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c", "d"]

    def test_far_future_events_cross_the_wheel_horizon(self, make_sim):
        # Delays far beyond WHEEL_SLOTS * WHEEL_WIDTH_US must still fire
        # in order (overflow heap + migration on rotation).
        sim = make_sim()
        seen = []
        for delay in (900000.0, 5.0, 90000.0, 900000.0, 1.0):
            sim.schedule(delay, lambda d=delay: seen.append(d))
        sim.run()
        assert seen == [1.0, 5.0, 90000.0, 900000.0, 900000.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, make_sim):
        sim = make_sim()
        seen = []
        event = sim.schedule(10.0, lambda: seen.append("x"))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_cancel_after_fire_is_noop(self, make_sim):
        sim = make_sim()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("x"))
        sim.run()
        sim.cancel(event)
        assert seen == ["x"]

    def test_cancelled_events_not_counted_pending(self, make_sim):
        sim = make_sim()
        event = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.cancel(event)
        assert sim.pending_events() == 1

    def test_event_active_tracks_lifecycle(self, make_sim):
        sim = make_sim()
        fired = sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(10.0, lambda: None)
        pending = sim.schedule(20.0, lambda: None)
        assert sim.event_active(fired) and sim.event_active(cancelled)
        sim.cancel(cancelled)
        sim.run_until(5.0)
        assert not sim.event_active(fired)
        assert not sim.event_active(cancelled)
        assert sim.event_active(pending)


class TestRunUntil:
    def test_run_until_stops_future_events(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(10.0, lambda: seen.append("early"))
        sim.schedule(100.0, lambda: seen.append("late"))
        sim.run_until(50.0)
        assert seen == ["early"]
        assert sim.now == 50.0

    def test_run_until_includes_boundary_events(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(50.0, lambda: seen.append("edge"))
        sim.run_until(50.0)
        assert seen == ["edge"]

    def test_run_until_advances_clock_with_no_events(self, make_sim):
        sim = make_sim()
        sim.run_until(123.0)
        assert sim.now == 123.0

    def test_run_until_can_be_resumed(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(10.0, lambda: seen.append("a"))
        sim.schedule(60.0, lambda: seen.append("b"))
        sim.run_until(30.0)
        assert seen == ["a"]
        sim.run_until(100.0)
        assert seen == ["a", "b"]

    def test_schedule_after_run_until_lands_in_the_future(self, make_sim):
        # The wheel head may have rotated past the stop time; a fresh
        # schedule must still fire at now + delay.
        sim = make_sim()
        seen = []
        sim.schedule(500.0, lambda: seen.append("far"))
        sim.run_until(100.0)
        sim.schedule(1.0, lambda: seen.append("near"))
        sim.run()
        assert seen == ["near", "far"]

    def test_events_processed_counter(self, make_sim):
        sim = make_sim()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestPendingEvents:
    """The live count must track schedule/cancel/fire without heap scans."""

    def test_counts_scheduled_events(self, make_sim):
        sim = make_sim()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending_events() == 5

    def test_fired_events_leave_the_count(self, make_sim):
        sim = make_sim()
        sim.schedule(10.0, lambda: None)
        sim.schedule(50.0, lambda: None)
        sim.run_until(20.0)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_double_cancel_decrements_once(self, make_sim):
        sim = make_sim()
        event = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events() == 1

    def test_cancel_after_fire_does_not_underflow(self, make_sim):
        sim = make_sim()
        event = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        sim.run_until(15.0)
        sim.cancel(event)
        assert sim.pending_events() == 1

    def test_count_visible_from_inside_callbacks(self, make_sim):
        sim = make_sim()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.pending_events()))
        sim.schedule(20.0, lambda: None)
        sim.schedule(30.0, lambda: None)
        sim.run()
        # While the first callback runs, only the two later events remain.
        assert seen == [2]

    def test_matches_brute_force_under_churn(self, make_sim):
        sim = make_sim()
        events = []

        def spawn():
            events.append(sim.schedule(7.0, lambda: None))

        for i in range(50):
            events.append(sim.schedule(float(i % 7) + 1.0, spawn if i % 3 else (lambda: None)))
        for event in events[::4]:
            sim.cancel(event)
        sim.run_until(4.0)
        brute = sum(1 for _, _, active in sim.pending_entries() if active)
        assert sim.pending_events() == brute


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, make_sim):
        def run_once():
            sim = make_sim()
            trace = []

            def tick(n):
                trace.append((n, sim.now))
                if n < 20:
                    sim.schedule(float(n % 3) + 0.5, lambda: tick(n + 1))

            sim.schedule(0.0, lambda: tick(0))
            sim.run()
            return trace

        assert run_once() == run_once()

    def test_cores_produce_identical_traces(self):
        def run_once(make_sim):
            sim = make_sim()
            trace = []

            def tick(n):
                trace.append((n, sim.now, sim.events_processed, sim.pending_events()))
                if n < 200:
                    sim.schedule(float(n % 11) * 37.5, lambda: tick(n + 1))
                    if n % 4 == 0:
                        sim.schedule(float(n % 5), lambda: tick(n + 100000))

            sim.schedule(0.0, lambda: tick(0))
            sim.run_until(2500.0)
            return trace

        traces = [run_once(SIMULATORS[name]) for name in sorted(SIMULATORS)]
        assert traces[0] == traces[1] == traces[2]
