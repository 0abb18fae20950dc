"""Dispatch engine: pumps requests from a scheduler into a device.

Models the serialized dispatch section of the block layer: one request at
a time passes through the scheduler's lock (``lock_overhead_us``), which
is the bandwidth ceiling the paper measures for MQ-DL and BFQ (O2).
Waiters spin: per dispatched request, up to ``spin_cap`` queued
submitters are assumed to be busy-waiting for the lock and their wait is
charged to the core set as spin time -- reproducing the "full core per
batch app" CPU profile of the schedulers (Fig. 4c/d).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.cpu.cores import CoreSet
from repro.iocontrol.base import IoScheduler
from repro.iorequest import IoRequest
from repro.sim.engine import Simulator
from repro.ssd.device import SimulatedNvmeDevice

CompletionFn = Callable[[IoRequest], None]


class DispatchEngine:
    """Connects one scheduler instance to one device."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: IoScheduler,
        device: SimulatedNvmeDevice,
        core_set: CoreSet,
        on_complete: CompletionFn,
        spin_cap: int = 8,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.device = device
        self.core_set = core_set
        self.on_complete = on_complete
        # The scheduler's completion hook, or None when it is the base
        # class's no-op (none): then a completion does not call it.
        self._scheduler_complete = (
            scheduler.on_complete
            if type(scheduler).on_complete is not IoScheduler.on_complete
            else None
        )
        self.spin_cap = spin_cap
        self._lock_busy = False
        self._retry_armed_until: Optional[float] = None
        self._retry_event = None
        self.dispatched = 0

    def submit(self, req: IoRequest) -> None:
        """Hand an admitted request to the scheduler and try to dispatch."""
        req.queued_time = self.sim.now
        self.scheduler.add(req)
        if not self._lock_busy:
            self.pump()

    def pump(self) -> None:
        """Dispatch the next request if the lock is free."""
        if self._lock_busy:
            return
        scheduler = self.scheduler
        req, retry_at = scheduler.pop(self.sim.now)
        if req is None:
            if retry_at is not None:
                self._arm_retry(retry_at)
            return
        self._lock_busy = True
        lock_us = scheduler.lock_overhead_us
        waiters = scheduler.queued()
        if waiters:
            if waiters > self.spin_cap:
                waiters = self.spin_cap
            self.core_set.account_spin(waiters * lock_us)
        self.sim.schedule(lock_us, partial(self._dispatch, req))

    def _arm_retry(self, retry_at: float) -> None:
        # Keep exactly one live retry timer: re-arming for a later or
        # equal deadline is a no-op; an earlier deadline replaces (and
        # cancels) the pending timer. Leaking stale timers here snowballs
        # into unbounded same-timestamp event storms.
        # Never arm in the past/present: a scheduler whose reported
        # deadline does not unblock it would otherwise spin the event
        # loop at a single timestamp.
        retry_at = max(retry_at, self.sim.now + 1.0)
        if self._retry_armed_until is not None and self._retry_armed_until <= retry_at:
            return
        if self._retry_event is not None:
            self.sim.cancel(self._retry_event)
        self._retry_armed_until = retry_at
        self._retry_event = self.sim.schedule_at(retry_at, self._retry_fire)

    def _retry_fire(self) -> None:
        self._retry_armed_until = None
        self._retry_event = None
        self.pump()

    def _dispatch(self, req: IoRequest) -> None:
        self._lock_busy = False
        req.dispatch_time = self.sim.now
        self.dispatched += 1
        self.device.submit(req, self._device_complete)
        self.pump()

    def _device_complete(self, req: IoRequest) -> None:
        scheduler_complete = self._scheduler_complete
        if scheduler_complete is not None:
            scheduler_complete(req)
        self.on_complete(req)
        if not self._lock_busy:
            self.pump()
