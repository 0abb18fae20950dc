"""D1: isolation overhead and scalability (§V, Fig. 3 & Fig. 4).

Two experiments:

* **Q1 latency overhead** -- scale LC-apps (QD=1, 4 KiB random reads) on
  a single core from 1 upward; report the latency CDF/P99, single-core
  CPU utilization, and the perf-style profile (context switches and
  cycles per I/O).
* **Q2 bandwidth scalability** -- scale batch-apps (QD=256) over 1..N
  SSDs with 10 cores; report aggregated bandwidth and CPU utilization.

Knobs are configured per §V so they perform no actual control; only the
mechanism cost is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import Scenario
from repro.core.knob_catalog import ALL_KNOB_NAMES, overhead_knobs
from repro.core.scenarios import batch_scaling_specs, lc_scaling_specs
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.exec.summary import ScenarioSummary
from repro.metrics.latency import cdf, percentile, seq_sum
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like


@dataclass(frozen=True)
class LcOverheadPoint:
    """One (knob, #apps) cell of Fig. 3."""

    knob: str
    n_apps: int
    p99_us: float
    p50_us: float
    mean_us: float
    cpu_utilization: float
    ctx_switches_per_io: float
    cycles_per_io: float
    total_iops: float


@dataclass
class LcOverheadStudy:
    """Fig. 3 data: points per knob per app count, plus raw CDFs."""

    points: list[LcOverheadPoint] = field(default_factory=list)
    cdfs: dict[tuple[str, int], tuple[list[float], list[float]]] = field(
        default_factory=dict
    )

    def p99(self, knob: str, n_apps: int) -> float:
        for point in self.points:
            if point.knob == knob and point.n_apps == n_apps:
                return point.p99_us
        raise KeyError(f"no point for ({knob}, {n_apps})")

    def utilization(self, knob: str, n_apps: int) -> float:
        for point in self.points:
            if point.knob == knob and point.n_apps == n_apps:
                return point.cpu_utilization
        raise KeyError(f"no point for ({knob}, {n_apps})")


def _merged_latencies(summary: ScenarioSummary) -> list[float]:
    samples: list[float] = []
    for app_name in summary.app_names():
        samples.extend(
            summary.window_latencies(
                app_name, summary.t_start_us, summary.t_end_us
            )
        )
    return samples


def run_lc_overhead(
    app_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    knob_names: tuple[str, ...] = ALL_KNOB_NAMES,
    ssd: SsdModel | None = None,
    duration_s: float = 0.4,
    warmup_s: float = 0.1,
    seed: int = 42,
    cdf_points: int = 100,
    collect_cdf_for: tuple[int, ...] = (1, 16),
    executor: SweepExecutor | None = None,
) -> LcOverheadStudy:
    """Run Q1: LC-app scaling on one core."""
    ssd = ssd or samsung_980pro_like()
    executor = resolve_executor(executor)
    study = LcOverheadStudy()
    scenarios: list[Scenario] = []
    cells: list[tuple[str, int]] = []
    for n_apps in app_counts:
        specs = lc_scaling_specs(n_apps)
        knobs = overhead_knobs(ssd, [spec.cgroup_path for spec in specs])
        for knob_name in knob_names:
            scenarios.append(
                Scenario(
                    name=f"d1-lc-{knob_name}-{n_apps}",
                    knob=knobs[knob_name],
                    apps=specs,
                    ssd_model=ssd,
                    cores=1,
                    duration_s=duration_s,
                    warmup_s=warmup_s,
                    seed=seed,
                )
            )
            cells.append((knob_name, n_apps))
    for (knob_name, n_apps), summary in zip(cells, executor.run_strict(scenarios)):
        samples = _merged_latencies(summary)
        if not samples:
            raise RuntimeError(f"no completions for {summary.scenario_name}")
        study.points.append(
            LcOverheadPoint(
                knob=knob_name,
                n_apps=n_apps,
                p99_us=percentile(samples, 99.0),
                p50_us=percentile(samples, 50.0),
                mean_us=seq_sum(samples) / len(samples),
                cpu_utilization=summary.cpu.utilization,
                ctx_switches_per_io=summary.cpu.ctx_switches_per_io,
                cycles_per_io=summary.cpu.cycles_per_io,
                total_iops=len(samples) / (summary.window_us / 1e6),
            )
        )
        if n_apps in collect_cdf_for:
            study.cdfs[(knob_name, n_apps)] = cdf(samples, points=cdf_points)
    return study


@dataclass(frozen=True)
class BandwidthScalingPoint:
    """One (knob, #apps, #SSDs) cell of Fig. 4."""

    knob: str
    n_apps: int
    n_devices: int
    bandwidth_gib_s: float
    cpu_utilization: float


def run_bandwidth_scaling(
    app_counts: tuple[int, ...] = (1, 2, 4, 8, 17),
    device_counts: tuple[int, ...] = (1, 7),
    knob_names: tuple[str, ...] = ALL_KNOB_NAMES,
    ssd: SsdModel | None = None,
    cores: int = 10,
    duration_s: float = 0.3,
    warmup_s: float = 0.1,
    seed: int = 42,
    device_scale: float = 1.0,
    queue_depth: int = 256,
    executor: SweepExecutor | None = None,
) -> list[BandwidthScalingPoint]:
    """Run Q2: batch-app scaling over multiple SSDs."""
    ssd = ssd or samsung_980pro_like()
    executor = resolve_executor(executor)
    scaled = ssd.scaled(device_scale)
    scenarios: list[Scenario] = []
    cells: list[tuple[str, int, int]] = []
    for n_devices in device_counts:
        for n_apps in app_counts:
            specs = batch_scaling_specs(n_apps, queue_depth=queue_depth)
            knobs = overhead_knobs(scaled, [spec.cgroup_path for spec in specs])
            for knob_name in knob_names:
                scenarios.append(
                    Scenario(
                        name=f"d1-bw-{knob_name}-{n_apps}x{n_devices}",
                        knob=knobs[knob_name],
                        apps=specs,
                        ssd_model=ssd,
                        num_devices=n_devices,
                        cores=cores,
                        duration_s=duration_s,
                        warmup_s=warmup_s,
                        seed=seed,
                        device_scale=device_scale,
                    )
                )
                cells.append((knob_name, n_apps, n_devices))
    return [
        BandwidthScalingPoint(
            knob=knob_name,
            n_apps=n_apps,
            n_devices=n_devices,
            bandwidth_gib_s=summary.equivalent_bandwidth_gib_s,
            cpu_utilization=summary.cpu.utilization,
        )
        for (knob_name, n_apps, n_devices), summary in zip(
            cells, executor.run_strict(scenarios)
        )
    ]


def peak_bandwidth(points: list[BandwidthScalingPoint], knob: str, n_devices: int) -> float:
    """Maximum bandwidth over app counts for one knob/device setting."""
    values = [
        p.bandwidth_gib_s
        for p in points
        if p.knob == knob and p.n_devices == n_devices
    ]
    if not values:
        raise KeyError(f"no points for ({knob}, {n_devices} devices)")
    return max(values)
