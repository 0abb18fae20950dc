"""Scenario execution and results.

:func:`run_scenario` builds a :class:`~repro.core.host.Host`, runs it and
returns a :class:`ScenarioResult`: the run's measurements -- the
per-app/per-cgroup window statistics, latency CDFs, aggregate bandwidth,
weighted fairness and CPU profile the paper's plots are built from --
plus the live host that produced them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import Scenario
from repro.core.host import Host
from repro.exec.summary import ScenarioSummary
from repro.obs.export import Trace


@dataclass(kw_only=True)
class ScenarioResult(ScenarioSummary):
    """One scenario run: its measurements plus the live objects behind them.

    Every measurement view (``app_stats``, ``cgroup_stats``,
    ``latency_cdf``, ``fairness``, ``describe``, ...) is
    :class:`~repro.exec.summary.ScenarioSummary`'s, here over the host
    collector's live completion logs; :func:`~repro.exec.summary.
    summarize` freezes them and drops the host. The host keeps the
    observability and control artifacts below, which only a freshly
    executed run has.
    """

    scenario: Scenario
    host: Host

    @property
    def ctl_trace(self) -> list[dict] | None:
        """The control-plane decision trace, or None when ctl was off.

        A list of self-describing JSONL-ready records (``observe`` /
        ``actuation`` / ``skip``), exportable with
        :func:`repro.ctl.write_ctl_trace`. Like the observability trace
        the artifact lives on the Host, so it is only available on a
        freshly executed (non-cached) result.
        """
        plane = self.host.ctl_plane
        if plane is None:
            return None
        return plane.records

    @property
    def trace(self) -> Trace | None:
        """The observability artifact, or None if tracing was off.

        Bundles the recorded request spans and sampler rows with run
        metadata, ready for the :mod:`repro.obs.export` writers.
        """
        tracer = self.host.tracer
        sampler = self.host.sampler
        if tracer is None and sampler is None:
            return None
        return Trace(
            meta={
                "scenario": self.scenario.name,
                "knob": self.scenario.knob.label,
                "num_devices": self.scenario.num_devices,
                "device_scale": self.scenario.device_scale,
                "seed": self.scenario.seed,
                "duration_us": self.scenario.duration_us,
                "warmup_us": self.scenario.warmup_us,
                "faults": (
                    self.scenario.faults.label
                    if self.scenario.faults is not None
                    else None
                ),
            },
            spans=tracer.spans if tracer is not None else [],
            samples=sampler.samples if sampler is not None else [],
            dropped_spans=tracer.dropped if tracer is not None else 0,
        )

    @property
    def profile(self):
        """The self-profiling artifact, or None if profiling was off.

        A :class:`~repro.prof.profiler.SimProfile` with the per-phase
        wall-clock breakdown of the event loop that produced this
        result, ready for the :mod:`repro.prof.export` writers.
        """
        profiler = self.host.profiler
        if profiler is None:
            return None
        return profiler.profile()


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Build, run and measure one scenario."""
    host = Host(scenario)
    wall_start = time.perf_counter()
    host.run()
    wall_seconds = time.perf_counter() - wall_start
    # Worst per-device "idle while work pending" fraction (§II-B D3):
    # 0.0 for a fully work-conserving stack.
    violations = [probe.violation_fraction for probe in host.wc_probes]
    return ScenarioResult(
        scenario_name=scenario.name,
        knob_label=scenario.knob.label,
        seed=scenario.seed,
        num_devices=scenario.num_devices,
        cores=scenario.cores,
        device_scale=scenario.device_scale,
        t_start_us=scenario.warmup_us,
        t_end_us=scenario.duration_us,
        apps=dict(host.collector.logs),
        cpu=host.accounting.report(),
        work_conservation_violation=max(violations) if violations else 0.0,
        events_processed=host.sim.events_processed,
        fault_counters=host.fault_counters(),
        ctl_counters=host.ctl_counters(),
        wall_seconds=wall_seconds,
        scenario=scenario,
        host=host,
    )
