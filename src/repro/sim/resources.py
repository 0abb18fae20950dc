"""Queued resource servers and rate limiters.

These two primitives cover every contended resource in the model:

* :class:`QueuedServer` -- ``capacity`` identical servers behind one FIFO
  queue (an M/G/k station). SSD flash units, the device data bus, CPU core
  sets and scheduler dispatch locks are all instances with different
  capacities and service demands.
* :class:`TokenBucket` -- a classic token bucket with reservation
  semantics, used by the io.max controller (blk-throttle behaves the same
  way: a request over budget waits exactly until its tokens accrue).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable

from repro.sim.engine import Simulator


class QueuedServer:
    """``capacity`` servers sharing a single FIFO queue.

    A job is a service demand in microseconds plus a completion callback
    and its one argument: ``fn(arg)`` runs when the job's service ends.
    Carrying the argument beside the callback keeps a job to one
    ``functools.partial`` per start, the one the engine fires. Busy time
    is integrated so callers can compute utilization over arbitrary
    measurement windows.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._busy = 0
        self._queue: deque[tuple[float, Callable[[Any], None], Any]] = deque()
        self._busy_integral = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.sim.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now

    def submit(self, demand_us: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Enqueue ``demand_us`` of work; ``fn(arg)`` runs on completion."""
        if self._busy < self.capacity:
            # A free server starts at once. The start/finish pair runs
            # once per simulated event, so the busy integral is kept
            # inline here and in _fire rather than through _account
            # (kept for the cold introspection paths).
            sim = self.sim
            now = sim.now
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy += 1
            sim.schedule(demand_us, partial(_fire, self, fn, arg))
        else:
            self._queue.append((demand_us, fn, arg))

    def release(self) -> None:
        """Drop a finished run's waiting work (callbacks into the owner)."""
        self._queue.clear()

    @property
    def busy(self) -> int:
        """Number of servers currently serving."""
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Number of items waiting (not yet in service)."""
        return len(self._queue)

    def busy_integral(self) -> float:
        """Integral of busy servers over time, in server-microseconds."""
        self._account()
        return self._busy_integral

    def utilization(self, integral_start: float, t_start: float, t_end: float) -> float:
        """Mean utilization in ``[t_start, t_end]``.

        ``integral_start`` is the value :meth:`busy_integral` returned at
        ``t_start``; call :meth:`busy_integral` again at ``t_end``.
        """
        if t_end <= t_start:
            return 0.0
        span = (t_end - t_start) * self.capacity
        return (self.busy_integral() - integral_start) / span


def _fire(server: QueuedServer, fn: Callable[[Any], None], arg: Any) -> None:
    """One service ends: start the next waiter on the freed server, then ``fn(arg)``.

    A plain function under a per-start ``partial``: nothing on the
    server refers back to it, so a server holds no reference cycle.
    """
    now = server.sim.now
    server._busy_integral += server._busy * (now - server._last_change)
    server._last_change = now
    queue = server._queue
    if queue:
        # The freed server takes the next waiter: the busy count stays.
        demand_us, next_fn, next_arg = queue.popleft()
        server.sim.schedule(demand_us, partial(_fire, server, next_fn, next_arg))
    else:
        server._busy -= 1
    fn(arg)


class TokenBucket:
    """Token bucket with reservation semantics.

    :meth:`reserve` always admits the request but returns the delay after
    which it is allowed to proceed; tokens may go negative, which models a
    FIFO queue of throttled requests (exactly how blk-throttle computes a
    dispatch time for an over-budget bio).
    """

    def __init__(self, rate_per_us: float, burst: float, start_time: float = 0.0):
        if rate_per_us <= 0:
            raise ValueError(f"token rate must be positive, got {rate_per_us}")
        self.rate = rate_per_us
        self.burst = max(burst, 0.0)
        self._tokens = self.burst
        self._last = start_time

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def reserve(self, amount: float, now: float) -> float:
        """Consume ``amount`` tokens; return the wait in microseconds."""
        self._refill(now)
        self._tokens -= amount
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate

    def tokens(self, now: float) -> float:
        """Current token level (may be negative while over-committed)."""
        self._refill(now)
        return self._tokens

    def set_rate(self, rate_per_us: float, now: float) -> None:
        """Change the refill rate, settling accrued tokens first."""
        if rate_per_us <= 0:
            raise ValueError(f"token rate must be positive, got {rate_per_us}")
        self._refill(now)
        self.rate = rate_per_us
