"""Per-device fault runtime: turns a :class:`FaultPlan` into events.

One :class:`FaultInjector` is built per simulated device when
``Scenario.faults`` is set. It owns three mechanisms:

* **stall injection** — latency spikes and GC-storm relocation chunks
  occupy flash units through the device's own ``QueuedServer``, so
  foreground requests queue behind faults exactly like they queue
  behind each other;
* **service scaling** — the device multiplies flash/bus occupancy by
  :meth:`service_multiplier` (sustained slowdowns, storm write
  amplification is applied separately through the GC state);
* **error rolls** — :meth:`roll_error` decides per request entering
  service whether it fails, drawing from the scenario's dedicated
  seeded fault stream (``faults.dev<i>``), so fault placement never
  perturbs workload or device-noise randomness.

All counters are exposed through :meth:`snapshot` and picked up by the
periodic stack sampler as ``dev<i>.faults.*`` rows, making "slow because
faulted" distinguishable from "slow because throttled" in traces.
"""

from __future__ import annotations

import random

from repro.faults.plan import FaultPlan, GcStorm, LatencySpike


def _noop(_arg: None) -> None:
    """Completion callback for fault occupancy (nothing to deliver)."""
    return None


class FaultInjector:
    """Schedules one device's faults and answers its per-request probes."""

    def __init__(self, sim, device, plan: FaultPlan, rng: random.Random):
        self.sim = sim
        self.device = device
        self.plan = plan
        self.rng = rng
        self._started = False
        self._storms_active = 0
        # Lifetime counters (surfaced via snapshot()).
        self.spikes_injected = 0
        self.storm_windows = 0
        self.errors_injected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every scheduled fault chain (idempotent)."""
        if self._started:
            return
        self._started = True
        for spike in self.plan.spikes:
            self.sim.schedule(spike.first_at_us, lambda s=spike: self._spike(s))
        for storm in self.plan.storms:
            self.sim.schedule(
                storm.first_at_us, lambda s=storm: self._storm_begin(s)
            )

    def _units(self, fraction: float) -> int:
        """Number of flash units a fault occupies (at least one)."""
        return max(1, round(fraction * self.device.model.parallelism))

    # ------------------------------------------------------------------
    # Latency spikes
    # ------------------------------------------------------------------
    def _spike(self, spike: LatencySpike) -> None:
        """Fire one latency spike, then self-schedule the next (jittered)."""
        self.spikes_injected += 1
        for _ in range(self._units(spike.unit_fraction)):
            self.device.flash.submit(spike.stall_us, _noop, None)
        gap = spike.period_us
        if spike.jitter:
            gap *= 1.0 + spike.jitter * (2.0 * self.rng.random() - 1.0)
        self.sim.schedule(gap, lambda: self._spike(spike))

    # ------------------------------------------------------------------
    # GC storms
    # ------------------------------------------------------------------
    def _storm_begin(self, storm: GcStorm) -> None:
        """Open a storm window: raise WAF, start relocation chunks."""
        self.storm_windows += 1
        self._storms_active += 1
        self.device.gc.begin_storm(storm.extra_waf)
        end_at = self.sim.now + storm.storm_us
        if storm.duty > 0:
            self._storm_chunk(storm, end_at)
        self.sim.schedule(storm.storm_us, lambda: self._storm_end(storm))

    def _storm_chunk(self, storm: GcStorm, end_at: float) -> None:
        """One relocation slice: occupy units for ``duty`` of the period."""
        if self.sim.now >= end_at:
            return
        busy_us = storm.duty * storm.chunk_period_us
        for _ in range(self._units(storm.unit_fraction)):
            self.device.flash.submit(busy_us, _noop, None)
        self.sim.schedule(
            storm.chunk_period_us, lambda: self._storm_chunk(storm, end_at)
        )

    def _storm_end(self, storm: GcStorm) -> None:
        """Close the storm window and schedule the next one."""
        self._storms_active -= 1
        self.device.gc.end_storm(storm.extra_waf)
        self.sim.schedule(
            storm.period_us - storm.storm_us,
            lambda: self._storm_begin(storm),
        )

    # ------------------------------------------------------------------
    # Per-request probes (called by the device on its service path)
    # ------------------------------------------------------------------
    def service_multiplier(self, op: int, now: float) -> float:
        """Sustained-slowdown factor for a request entering service now."""
        mult = 1.0
        for slow in self.plan.slowdowns:
            if slow.start_us <= now < slow.stop_us:
                mult *= slow.write_mult if op else slow.read_mult
        return mult

    def roll_error(self, now: float) -> float:
        """Error service cost if this request fails, else 0.0.

        A single RNG draw per request inside an active error window keeps
        the stream consumption (and therefore determinism) independent of
        how many error specs overlap.
        """
        probability = 0.0
        latency = 0.0
        for err in self.plan.errors:
            if err.start_us <= now < err.stop_us:
                probability = 1.0 - (1.0 - probability) * (1.0 - err.probability)
                latency = max(latency, err.error_latency_us)
        if probability > 0.0 and self.rng.random() < probability:
            self.errors_injected += 1
            return max(latency, 1e-9)
        return 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def storm_active(self) -> bool:
        """True while at least one GC storm window is open."""
        return self._storms_active > 0

    def snapshot(self) -> dict[str, float]:
        """Injector counters for the periodic sampler (``faults.*`` keys)."""
        return {
            "spikes_injected": float(self.spikes_injected),
            "storm_windows": float(self.storm_windows),
            "storm_active": 1.0 if self.storm_active else 0.0,
            "errors_injected": float(self.errors_injected),
        }
