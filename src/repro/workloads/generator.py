"""The workload driver (fio's engine loop).

An :class:`App` keeps ``queue_depth`` requests outstanding while inside
an activity window, picks each request's direction from the job's read
fraction, honours the job's rate limit by delaying submissions (fio's
``rate=`` semantics), and stops issuing -- letting in-flight requests
drain -- when a window closes. An open-loop job instead issues on a
Poisson arrival chain per :class:`~repro.workloads.spec.ArrivalPhase`,
whatever completes.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.iorequest import READ, WRITE, IoRequest
from repro.sim.engine import Simulator
from repro.sim.resources import TokenBucket
from repro.workloads.spec import ArrivalPhase, JobSpec

SubmitFn = Callable[[IoRequest], None]


class App:
    """Runtime instance of one job spec."""

    def __init__(
        self,
        sim: Simulator,
        spec: JobSpec,
        submit: SubmitFn,
        rng: random.Random,
        device_index: int = 0,
        prio_class: int = 0,
    ):
        self.sim = sim
        self.spec = spec
        self._submit = submit
        self.rng = rng
        self.device_index = device_index
        self.prio_class = prio_class
        self.outstanding = 0
        self.issued = 0
        # Open-loop jobs run one arrival chain per phase; a constant
        # rate is one phase per activity window. None for closed loop.
        phases = spec.arrival_phases
        if phases is None and spec.arrival_rate_iops is not None:
            phases = tuple(
                ArrivalPhase(window.start_us, window.stop_us, spec.arrival_rate_iops)
                for window in spec.windows
            )
        self._phases = phases
        self._bucket: TokenBucket | None = None
        if spec.rate_limit_bps is not None:
            rate_per_us = spec.rate_limit_bps / 1e6
            self._bucket = TokenBucket(rate_per_us, burst=float(spec.size))
        # Always-on jobs (the default single [0, inf) window) skip the
        # window scan on every refill/issue.
        self._always_active = (
            len(spec.windows) == 1
            and spec.windows[0].start_us == 0.0
            and spec.windows[0].stop_us == math.inf
        )

    def start(self) -> None:
        """Arm window-start (or phase-start) events."""
        if self._phases is not None:
            for phase in self._phases:
                self.sim.schedule_at(
                    phase.start_us, lambda p=phase: self._arrive_phase(p)
                )
        else:
            for window in self.spec.windows:
                self.sim.schedule_at(window.start_us, self._fill)

    # ------------------------------------------------------------------
    def _arrive_phase(self, phase: ArrivalPhase) -> None:
        """Open-loop Poisson arrivals at a phase's rate, one chain each.

        Each phase runs its chain inside ``[start_us, stop_us)`` and
        dies at the boundary, where the next phase's chain -- armed at
        :meth:`start` -- takes over at its rate. Gaps are drawn from the
        app's own stream, so a constant-rate job and the same job
        written as one phase per window draw identical arrivals.
        """
        if not phase.start_us <= self.sim.now < phase.stop_us:
            return
        self.outstanding += 1
        self._issue_one()
        gap = self.rng.expovariate(phase.rate_iops / 1e6)
        self.sim.schedule(gap, lambda: self._arrive_phase(phase))

    def _fill(self) -> None:
        """Top the queue back up to the configured depth."""
        spec = self.spec
        queue_depth = spec.queue_depth
        always = self._always_active
        bucket = self._bucket
        if bucket is None:
            while self.outstanding < queue_depth and (
                always or spec.active_at(self.sim.now)
            ):
                self.outstanding += 1
                self._issue_one()
            return
        size = float(spec.size)
        while (always or spec.active_at(self.sim.now)) and self.outstanding < queue_depth:
            self.outstanding += 1
            delay = bucket.reserve(size, self.sim.now)
            if delay > 0:
                self.sim.schedule(delay, self._issue_one)
            else:
                self._issue_one()

    def _issue_one(self) -> None:
        spec = self.spec
        if not (self._always_active or spec.active_at(self.sim.now)):
            # The window closed while this submission was rate-delayed.
            self.outstanding -= 1
            return
        op = READ if self.rng.random() < spec.read_fraction else WRITE
        req = IoRequest(
            app_name=spec.name,
            cgroup_path=spec.cgroup_path,
            op=op,
            pattern=spec.pattern,
            size=spec.size,
            device_index=self.device_index,
            prio_class=self.prio_class,
        )
        req.submit_time = self.sim.now
        self.issued += 1
        self._submit(req)

    def on_complete(self, req: IoRequest) -> None:
        """Called by the host when one of this app's requests completes."""
        self.outstanding -= 1
        if self._phases is None:
            self._fill()
