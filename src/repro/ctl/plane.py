"""The control plane: sampler subscription, drift scoring, dispatch.

The :class:`ControlPlane` is the sim-clock daemon at the center of
repro.ctl. It subscribes to a dedicated (non-retaining)
:class:`~repro.obs.sampler.StackSampler`; every ``CtlConfig.period_us``
worth of ticks it closes an observation window, pulls per-cgroup stats
from the metrics collector, scores them against the SLO with
:func:`~repro.tune.slo.score_cgroup_stats` (the exact machinery the D6
tuner ranks configurations with), and hands the resulting
:class:`~repro.ctl.base.ControlObservation` to each controller's
observe/step cycle. Every observation and every actuation -- applied or
suppressed -- is appended to the decision trace, exportable as JSONL
via :func:`~repro.obs.export.write_records_jsonl`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.ctl.base import ControlObservation, Controller
from repro.ctl.config import CtlConfig
from repro.tune.slo import SloSpec, score_cgroup_stats

MIB = 1024.0 * 1024.0

#: ``window_stats(t_start_us, t_end_us)`` -> per-cgroup AppWindowStats.
WindowStatsFn = Callable[[float, float], Mapping[str, object]]


class ControlPlane:
    """Drives the controllers off the sampler stream on the sim clock."""

    def __init__(
        self,
        sim,
        config: CtlConfig,
        slo: SloSpec,
        controllers: list[Controller],
        window_stats: WindowStatsFn,
        device_scale: float,
    ):
        """``slo`` is the config's spec with the utilization reference
        already resolved against the scenario's (unscaled) device model,
        so scoring never needs the SSD again."""
        self.sim = sim
        self.config = config
        self.slo = slo
        self.controllers = controllers
        self.window_stats = window_stats
        self.device_scale = device_scale
        self.records: list[dict] = []
        self.steps = 0
        self.skipped_windows = 0
        self._ticks = 0
        self._last_step_us = 0.0

    def on_sample(self, row: dict) -> None:
        """Sampler subscription callback: count ticks, step on cadence."""
        self._ticks += 1
        if self._ticks % self.config.ticks_per_step != 0:
            return
        self._step(row)

    def _step(self, row: dict) -> None:
        """Close one observation window and run every controller."""
        now = self.sim.now
        t_start = self._last_step_us
        window_us = now - t_start
        groups = self.window_stats(t_start, now)
        total_ios = sum(stats.ios for stats in groups.values())
        aggregate_mib_s = 0.0
        if window_us > 0:
            total_bytes = sum(stats.bytes for stats in groups.values())
            aggregate_mib_s = (
                total_bytes / MIB / (window_us / 1e6) * self.device_scale
            )
        score = score_cgroup_stats(
            self.slo,
            dict(groups),
            self.device_scale,
            aggregate_bandwidth_mib_s=aggregate_mib_s,
        )
        self.records.append(
            {
                "type": "observe",
                "t_us": now,
                "window_us": window_us,
                "ios": total_ios,
                "score": score.to_json_dict(),
                "needs_tightening": score.needs_tightening,
            }
        )
        self._last_step_us = now
        self.steps += 1
        if total_ios < self.config.min_window_ios:
            # Too few completions for a meaningful p99: hold everything.
            self.skipped_windows += 1
            self.records.append(
                {
                    "type": "skip",
                    "t_us": now,
                    "reason": "too-few-samples",
                    "ios": total_ios,
                }
            )
            return
        obs = ControlObservation(
            t_us=now,
            window_us=window_us,
            score=score,
            groups=groups,
            row=row,
            device_scale=self.device_scale,
        )
        for controller in self.controllers:
            controller.observe(obs)
            for actuation in controller.step():
                self.records.append(actuation.to_json_dict())

    def counters(self) -> dict[str, float]:
        """Deterministic accounting (``ScenarioSummary.ctl_counters``).

        Plane-level counts are unprefixed; each controller's counters
        are keyed ``<controller-name>.<counter>``.
        """
        row: dict[str, float] = {
            "steps": float(self.steps),
            "skipped_windows": float(self.skipped_windows),
        }
        for controller in self.controllers:
            for key, value in controller.counters().items():
                row[f"{controller.name}.{key}"] = value
        return row
