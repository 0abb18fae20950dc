"""Property tests (hypothesis) for the slot-wheel engine core.

The wheel's contract against the test-local heap oracle
(``tests/differential/oracle.py``): exact (time, seq) total order —
FIFO among equal timestamps — cancel-before-fire removes an event,
cancel-after-fire is a no-op, ``pending_events()`` is exact under any
interleaving of schedule/cancel/run, and a random event stream fires in
the identical order on the wheel and the oracle. Delays are drawn to
hit the wheel's boundaries on purpose: slot-width multiples, the wheel
horizon (``WHEEL_SLOTS * WHEEL_WIDTH_US``), zero delays, and far-future
overflow-heap spills.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

from tests.differential.oracle import HeapSimulator


class _TinyWheel(Simulator):
    """A deliberately tiny wheel so short streams still exercise slot
    wrap and overflow-heap migration."""

    WHEEL_SLOTS = 8
    WHEEL_WIDTH_US = 2.0


WHEELS = [Simulator, _TinyWheel]

#: Delays biased toward wheel boundaries: slot edges, the horizon of
#: both geometries (1024 us default, 16 us tiny), and the overflow range.
delay_strategy = st.one_of(
    st.just(0.0),
    st.sampled_from([2.0, 4.0, 8.0, 15.999, 16.0, 16.001, 1023.0, 1024.0, 1025.0]),
    st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    st.floats(min_value=900.0, max_value=1200.0, allow_nan=False),
    st.floats(min_value=1e4, max_value=1e6, allow_nan=False),
)

#: One op per element: a delay to schedule at, or a cancel of the i-th
#: previously scheduled event (index drawn mod the live count).
ops_strategy = st.lists(
    st.one_of(
        delay_strategy.map(lambda d: ("schedule", d)),
        st.integers(min_value=0, max_value=63).map(lambda i: ("cancel", i)),
        st.sampled_from([("run_some", None)]),
    ),
    min_size=1,
    max_size=60,
)


def _drive(sim: Simulator, ops) -> tuple[list[int], int]:
    """Apply an op stream; returns (fired ids, model pending count)."""
    fired: list[int] = []
    handles: list = []
    live: set[int] = set()
    next_id = 0
    for op, arg in ops:
        if op == "schedule":
            event_id = next_id
            next_id += 1

            def fn(event_id=event_id) -> None:
                fired.append(event_id)
                live.discard(event_id)

            handles.append(sim.schedule(arg, fn))
            live.add(event_id)
        elif op == "cancel" and handles:
            index = arg % len(handles)
            handle = handles[index]
            if sim.event_active(handle):
                sim.cancel(handle)
                live.discard(index)
        elif op == "run_some":
            sim.run_until(sim.now + 8.0)
        assert sim.pending_events() == len(live)
    sim.run()
    assert sim.pending_events() == 0 and not live
    return fired, len(live)


class TestFifoEqualTimestamps:
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40)
    )
    @settings(max_examples=60)
    def test_equal_timestamps_fire_in_schedule_order(self, groups):
        """Events at one timestamp fire in the order they were scheduled."""
        for wheel in WHEELS:
            sim = wheel()
            fired: list[int] = []
            for i, group in enumerate(groups):
                # Many events collapse onto few distinct timestamps.
                sim.schedule(float(group), lambda i=i: fired.append(i))
            sim.run()
            by_time = sorted(
                range(len(groups)), key=lambda i: (float(groups[i]), i)
            )
            assert fired == by_time, wheel

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=30)
    def test_same_tick_batch_preserves_nested_schedules(self, n):
        """Zero-delay events scheduled *during* a tick still run FIFO."""
        for wheel in WHEELS:
            sim = wheel()
            fired: list[str] = []

            def spawn(i: int) -> None:
                fired.append(f"parent{i}")
                sim.schedule(0.0, lambda i=i: fired.append(f"child{i}"))

            for i in range(n):
                sim.schedule(1.0, lambda i=i: spawn(i))
            sim.run()
            expected = [f"parent{i}" for i in range(n)] + [
                f"child{i}" for i in range(n)
            ]
            assert fired == expected, wheel


class TestCancelSemantics:
    @given(delay_strategy)
    @settings(max_examples=60)
    def test_cancel_before_fire_suppresses(self, delay):
        for wheel in WHEELS:
            sim = wheel()
            fired: list[int] = []
            handle = sim.schedule(delay, lambda: fired.append(1))
            assert sim.event_active(handle)
            assert sim.pending_events() == 1
            sim.cancel(handle)
            assert not sim.event_active(handle)
            assert sim.pending_events() == 0
            sim.run()
            assert fired == []

    @given(delay_strategy)
    @settings(max_examples=60)
    def test_cancel_after_fire_is_noop(self, delay):
        for wheel in WHEELS:
            sim = wheel()
            fired: list[int] = []
            handle = sim.schedule(delay, lambda: fired.append(1))
            sim.run()
            assert fired == [1]
            sim.cancel(handle)  # must not raise or corrupt accounting
            sim.cancel(handle)  # double-cancel after fire: still a no-op
            assert sim.pending_events() == 0
            assert sim.events_processed == 1

    @given(delay_strategy)
    @settings(max_examples=40)
    def test_double_cancel_counts_once(self, delay):
        for wheel in WHEELS:
            sim = wheel()
            handle = sim.schedule(delay, lambda: None)
            sim.cancel(handle)
            sim.cancel(handle)
            assert sim.pending_events() == 0
            sim.run()
            assert sim.events_processed == 0


class TestPendingEventsExactness:
    @given(ops_strategy)
    @settings(max_examples=60)
    def test_pending_exact_under_interleaving(self, ops):
        """pending_events() is exact after every schedule/cancel/run step."""
        for wheel in WHEELS:
            _drive(wheel(), ops)  # asserts at every step

    @given(ops_strategy)
    @settings(max_examples=40)
    def test_pending_matches_entry_scan(self, ops):
        """O(1) counter == O(n) active-entry scan, mid-stream."""
        for wheel in WHEELS:
            sim = wheel()
            for op, arg in ops:
                if op == "schedule":
                    sim.schedule(arg, lambda: None)
                elif op == "run_some":
                    sim.run_until(sim.now + 8.0)
                active = sum(
                    1 for _, _, is_active in sim.pending_entries() if is_active
                )
                assert sim.pending_events() == active


class TestHeapWheelEquivalence:
    @given(ops_strategy)
    @settings(max_examples=60)
    def test_random_streams_fire_identically(self, ops):
        """The wheel is a drop-in for the heap: same fired ids, same order,
        same final clock and processed-event count."""
        results = []
        for make_sim in (Simulator, _TinyWheel, HeapSimulator):
            sim = make_sim()
            fired, _ = _drive(sim, ops)
            results.append((fired, sim.now, sim.events_processed))
        assert results[0] == results[2], "wheel vs heap oracle diverge"
        assert results[1] == results[2], "tiny wheel vs heap oracle diverge"

    @given(
        st.lists(
            st.tuples(delay_strategy, delay_strategy),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40)
    def test_reschedule_chains_fire_identically(self, chain_spec):
        """Two-hop chains (event schedules a follow-up) match the oracle."""

        def run(make_sim) -> tuple[list[int], float]:
            sim = make_sim()
            fired: list[int] = []
            for i, (first, second) in enumerate(chain_spec):

                def hop(i=i, second=second) -> None:
                    fired.append(i)
                    sim.schedule(second, lambda i=i: fired.append(i + 1000))

                sim.schedule(first, hop)
            sim.run()
            return fired, sim.now

        assert run(Simulator) == run(HeapSimulator)
        assert run(_TinyWheel) == run(HeapSimulator)
