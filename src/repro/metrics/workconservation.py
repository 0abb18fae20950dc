"""Work-conservation probe (the paper's strict D3 definition).

The paper adopts the definition that "any requests that are not
immediately dispatched to the SSD are non-work-conserving": at any
instant where the device has idle capacity while requests sit in cgroup
throttles or scheduler queues, the I/O control is sacrificing
utilization. The probe samples that condition periodically and reports
the *violation fraction* — 0.0 for a perfectly work-conserving stack
(none), approaching 1.0 for a hard static cap (io.max with a tight
limit while demand is pent up).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator


class WorkConservationProbe:
    """Samples "device idle while work is pending" at a fixed period."""

    def __init__(
        self,
        sim: Simulator,
        device_idle: Callable[[], bool],
        pending_requests: Callable[[], int],
        period_us: float = 250.0,
    ):
        if period_us <= 0:
            raise ValueError("probe period must be positive")
        self.sim = sim
        self.device_idle = device_idle
        self.pending_requests = pending_requests
        self.period_us = period_us
        self.samples = 0
        self.violations = 0
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.period_us, self._tick)

    def stop(self) -> None:
        """Stop sampling; the next scheduled tick ends the chain."""
        self._running = False

    def reset(self) -> None:
        """Drop accumulated samples (e.g. at the end of warmup)."""
        self.samples = 0
        self.violations = 0

    def _tick(self) -> None:
        """Take one sample and schedule the next while running."""
        if not self._running:
            return
        self.samples += 1
        if self.device_idle() and self.pending_requests() > 0:
            self.violations += 1
        self.sim.schedule(self.period_us, self._tick)

    @property
    def violation_fraction(self) -> float:
        """Fraction of samples where utilization was being sacrificed."""
        return self.violations / self.samples if self.samples else 0.0
