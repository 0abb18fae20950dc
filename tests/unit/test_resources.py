"""Unit tests for QueuedServer and TokenBucket."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import QueuedServer, TokenBucket


class TestQueuedServer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueuedServer(Simulator(), 0)

    def test_single_server_serializes(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        done = []
        server.submit(10.0, lambda _: done.append(sim.now), None)
        server.submit(10.0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [10.0, 20.0]

    def test_parallel_servers_run_concurrently(self):
        sim = Simulator()
        server = QueuedServer(sim, 2)
        done = []
        server.submit(10.0, lambda _: done.append(sim.now), None)
        server.submit(10.0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [10.0, 10.0]

    def test_fifo_queueing_order(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        done = []
        for tag in ("a", "b", "c"):
            server.submit(5.0, lambda _, t=tag: done.append(t), None)
        sim.run()
        assert done == ["a", "b", "c"]

    def test_busy_and_queue_depth(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        server.submit(10.0, lambda _: None, None)
        server.submit(10.0, lambda _: None, None)
        assert server.busy == 1
        assert server.queue_depth == 1
        sim.run()
        assert server.busy == 0
        assert server.queue_depth == 0

    def test_busy_integral_accumulates_service_time(self):
        sim = Simulator()
        server = QueuedServer(sim, 2)
        server.submit(10.0, lambda _: None, None)
        server.submit(10.0, lambda _: None, None)
        sim.run()
        assert server.busy_integral() == pytest.approx(20.0)

    def test_utilization_over_window(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        start_integral = server.busy_integral()
        server.submit(25.0, lambda _: None, None)
        sim.run_until(100.0)
        util = server.utilization(start_integral, 0.0, 100.0)
        assert util == pytest.approx(0.25)

    def test_utilization_empty_window_is_zero(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        assert server.utilization(0.0, 50.0, 50.0) == 0.0

    def test_queued_work_starts_when_server_frees(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        done = []
        server.submit(7.0, lambda _: done.append(("first", sim.now)), None)
        sim.run_until(3.0)
        server.submit(7.0, lambda _: done.append(("second", sim.now)), None)
        sim.run()
        assert done == [("first", 7.0), ("second", 14.0)]


class TestJobContract:
    """``submit(demand_us, fn, arg)``: ``fn(arg)`` runs when the job ends."""

    def test_fn_gets_its_arg_at_completion(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        seen = []
        server.submit(4.0, lambda arg: seen.append((arg, sim.now)), "job")
        assert seen == []
        sim.run()
        assert seen == [("job", 4.0)]

    def test_the_engine_fires_the_callers_fn_unwrapped(self):
        # One partial per start, over the caller's own fn and arg.
        sim = Simulator()
        server = QueuedServer(sim, 1)
        fn = [].append
        server.submit(4.0, fn, "job")
        (entry,) = sim._heap
        assert entry[2].args[1:] == (fn, "job")

    def test_each_server_serves_fifo(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        seen = []
        for arg, demand in enumerate((5.0, 1.0, 3.0, 1.0)):
            server.submit(demand, lambda arg: seen.append((arg, sim.now)), arg)
        sim.run()
        assert seen == [(0, 5.0), (1, 6.0), (2, 9.0), (3, 10.0)]

    def test_capacity_is_respected(self):
        sim = Simulator()
        server = QueuedServer(sim, 2)
        busy = []
        seen = []

        def done(arg):
            busy.append(server.busy)
            seen.append((arg, sim.now))

        for arg in range(5):
            server.submit(10.0, done, arg)
        assert (server.busy, server.queue_depth) == (2, 3)
        sim.run()
        assert max(busy) <= 2
        assert seen == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0), (4, 30.0)]
        assert (server.busy, server.queue_depth) == (0, 0)

    def test_release_drops_the_queued_jobs(self):
        sim = Simulator()
        server = QueuedServer(sim, 1)
        seen = []
        for arg in range(3):
            server.submit(10.0, seen.append, arg)
        server.release()
        assert server.queue_depth == 0
        sim.run()
        # The job in service still ends; the two queued ones are gone.
        assert seen == [0]
        assert server.busy == 0


class TestTokenBucket:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, burst=1.0)

    def test_initial_burst_admits_immediately(self):
        bucket = TokenBucket(1.0, burst=100.0)
        assert bucket.reserve(50.0, now=0.0) == 0.0

    def test_over_budget_returns_wait(self):
        bucket = TokenBucket(1.0, burst=10.0)  # 1 token/us
        assert bucket.reserve(10.0, now=0.0) == 0.0
        wait = bucket.reserve(5.0, now=0.0)
        assert wait == pytest.approx(5.0)

    def test_tokens_refill_over_time(self):
        bucket = TokenBucket(2.0, burst=10.0)
        bucket.reserve(10.0, now=0.0)
        # After 5us, 10 tokens accrued.
        assert bucket.reserve(10.0, now=5.0) == 0.0

    def test_burst_is_capped(self):
        bucket = TokenBucket(1.0, burst=10.0)
        assert bucket.tokens(now=1000.0) == pytest.approx(10.0)

    def test_reservations_queue_fifo(self):
        bucket = TokenBucket(1.0, burst=0.0)
        w1 = bucket.reserve(10.0, now=0.0)
        w2 = bucket.reserve(10.0, now=0.0)
        assert w2 == pytest.approx(w1 + 10.0)

    def test_long_run_rate_is_respected(self):
        bucket = TokenBucket(1.0, burst=5.0)
        admitted_by = []
        now = 0.0
        for _ in range(100):
            wait = bucket.reserve(1.0, now)
            admitted_by.append(now + wait)
        # 100 tokens at 1/us starting with 5 burst: last admission ~95us.
        assert max(admitted_by) == pytest.approx(95.0)

    def test_set_rate_validates(self):
        bucket = TokenBucket(1.0, burst=1.0)
        with pytest.raises(ValueError):
            bucket.set_rate(-1.0, now=0.0)

    def test_set_rate_changes_future_refill(self):
        bucket = TokenBucket(1.0, burst=0.0)
        bucket.reserve(10.0, now=0.0)  # debt of 10
        bucket.set_rate(10.0, now=0.0)
        wait = bucket.reserve(0.0, now=0.0)
        # Debt repays at the new rate.
        assert wait == pytest.approx(1.0)

    def test_negative_tokens_reported(self):
        bucket = TokenBucket(1.0, burst=1.0)
        bucket.reserve(5.0, now=0.0)
        assert bucket.tokens(now=0.0) < 0
