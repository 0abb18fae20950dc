"""End-to-end Table I evaluation: run every sub-benchmark, score, render.

This is the "one button" of isol-bench: reduced versions of the D1-D4
experiments feed :mod:`repro.core.desiderata` and out comes the paper's
Table I. Durations/scales are parameterized so tests can run a quick
version and the bench a thorough one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.d1_overhead import run_bandwidth_scaling, run_lc_overhead, peak_bandwidth
from repro.core.d2_fairness import (
    run_mixed_workload_fairness,
    run_uniform_fairness,
    run_weighted_fairness,
)
from repro.core.d3_tradeoffs import sweep_knob, unprotected_baseline
from repro.core.d4_bursts import burst_knobs, measure_burst_response
from repro.core.desiderata import (
    DesiderataInputs,
    TableOne,
    score_all,
)
from repro.core.pareto import distinct_clusters, front_span
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like

CONTROL_KNOBS = ("mq-deadline", "bfq", "io.max", "io.latency", "io.cost")

# Knobs whose configuration must be recomputed by hand as tenants come
# and go (the paper's §VII criticism of io.max).
STATIC_KNOBS = {"io.max"}
# Knobs with no own prioritization mechanism for bursts: BFQ cannot
# effectively prioritize (O6); io.max only throttles others.
NO_PRIORITIZATION = {"bfq"}


@dataclass
class TableOneSettings:
    """Effort level for the evaluation."""

    ssd: SsdModel = None  # type: ignore[assignment]
    duration_s: float = 0.4
    warmup_s: float = 0.12
    fairness_duration_s: float = 0.6
    # io.latency needs to traverse its QD staircase (10 windows x 500 ms)
    # before the low-utilization trade-off points exist.
    iolatency_duration_s: float = 8.0
    burst_duration_s: float = 8.0
    device_scale: float = 8.0
    burst_device_scale: float = 16.0
    sweep_points: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.ssd is None:
            self.ssd = samsung_980pro_like()


def quick_settings() -> TableOneSettings:
    """The ``table1 --quick`` effort level (shared by CLI and goldens)."""
    return TableOneSettings(
        duration_s=0.25,
        warmup_s=0.08,
        fairness_duration_s=0.4,
        iolatency_duration_s=7.0,
        burst_duration_s=6.0,
        device_scale=12.0,
        burst_device_scale=20.0,
        sweep_points=4,
    )


def mini_settings() -> TableOneSettings:
    """Tier-1 effort: every stage of the pipeline, minimal durations."""
    return TableOneSettings(
        duration_s=0.06,
        warmup_s=0.02,
        fairness_duration_s=0.08,
        iolatency_duration_s=0.5,
        burst_duration_s=2.5,
        device_scale=16.0,
        burst_device_scale=24.0,
        sweep_points=2,
    )


def evaluate_table_one(
    settings: TableOneSettings | None = None,
    executor: SweepExecutor | None = None,
) -> TableOne:
    """Run the reduced D1-D4 suite and score Table I."""
    settings = settings or TableOneSettings()
    ssd = settings.ssd
    executor = resolve_executor(executor)

    # ---- D1 -----------------------------------------------------------
    lc = run_lc_overhead(
        app_counts=(1, 16),
        ssd=ssd,
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        collect_cdf_for=(),
        executor=executor,
    )
    bw = run_bandwidth_scaling(
        app_counts=(17,),
        device_counts=(1,),
        ssd=ssd,
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        device_scale=settings.device_scale,
        executor=executor,
    )
    none_p99_1 = lc.p99("none", 1)
    none_p99_16 = lc.p99("none", 16)
    none_peak = peak_bandwidth(bw, "none", 1)

    # ---- D2 -----------------------------------------------------------
    def fairness_map(points):
        return {p.knob: p.fairness for p in points}

    uniform16 = fairness_map(
        run_uniform_fairness(
            group_counts=(16,),
            ssd=ssd,
            duration_s=settings.fairness_duration_s,
            warmup_s=settings.warmup_s,
            seed=settings.seed,
            device_scale=settings.device_scale,
            executor=executor,
        )
    )
    weighted2 = fairness_map(
        run_weighted_fairness(
            group_counts=(2,),
            ssd=ssd,
            duration_s=settings.iolatency_duration_s,
            warmup_s=settings.iolatency_duration_s * 0.5,
            seed=settings.seed,
            device_scale=settings.device_scale,
            executor=executor,
        )
    )
    weighted16 = fairness_map(
        run_weighted_fairness(
            group_counts=(16,),
            ssd=ssd,
            duration_s=settings.fairness_duration_s,
            warmup_s=settings.warmup_s,
            seed=settings.seed,
            device_scale=settings.device_scale,
            executor=executor,
        )
    )
    mixed_sizes = fairness_map(
        run_mixed_workload_fairness(
            "sizes",
            ssd=ssd,
            duration_s=settings.fairness_duration_s,
            warmup_s=settings.warmup_s,
            seed=settings.seed,
            device_scale=settings.device_scale,
            executor=executor,
        )
    )

    # ---- D3 -----------------------------------------------------------
    base = unprotected_baseline(
        "batch",
        ssd=ssd,
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        device_scale=settings.device_scale,
        executor=executor,
    )
    front_stats: dict[str, tuple[int, float, bool]] = {}
    for knob_name in CONTROL_KNOBS:
        duration = (
            settings.iolatency_duration_s
            if knob_name == "io.latency"
            else settings.duration_s
        )
        easy = sweep_knob(
            knob_name,
            "batch",
            be_variant="rand-4k",
            ssd=ssd,
            duration_s=duration,
            warmup_s=duration * 0.3,
            seed=settings.seed,
            device_scale=settings.device_scale,
            sweep_points=settings.sweep_points,
            executor=executor,
        )
        # Clusters are counted over ALL swept configurations (the paper
        # plots every point, Fig. 7): they measure how many distinct
        # operating points the knob can express. The span still comes
        # from all points' utilization axis.
        clusters = distinct_clusters(
            easy,
            x_resolution=max(base.aggregate_gib_s * 0.05, 1e-6),
            y_resolution=max(
                abs(max(p.priority_metric for p in easy)) * 0.08, 1e-6
            ),
        )
        x_span, _ = front_span(easy)
        hard_ok = True
        for variant in ("rand-256k", "rand-4k-write"):
            hard = sweep_knob(
                knob_name,
                "batch",
                be_variant=variant,
                ssd=ssd,
                duration_s=duration,
                warmup_s=duration * 0.3,
                seed=settings.seed,
                device_scale=settings.device_scale,
                # Trade-off curves often saturate early on the hard
                # variants (e.g. write costs cap the device well below
                # vrate=100%); 4 points keep the cluster count meaningful.
                sweep_points=max(4, settings.sweep_points - 1),
                executor=executor,
            )
            hard_clusters = distinct_clusters(
                hard,
                x_resolution=max(base.aggregate_gib_s * 0.05, 1e-6),
                y_resolution=max(
                    abs(max(p.priority_metric for p in hard)) * 0.08, 1e-6
                ),
            )
            if hard_clusters < 3:
                hard_ok = False
        front_stats[knob_name] = (
            clusters,
            x_span / max(base.aggregate_gib_s, 1e-9),
            hard_ok,
        )

    # ---- D4 -----------------------------------------------------------
    scaled = ssd.scaled(settings.burst_device_scale)
    bursts = burst_knobs(scaled, "batch", lc_target_us=1600.0)
    burst_ms: dict[str, float | None] = {}
    for knob_name in CONTROL_KNOBS:
        response = measure_burst_response(
            bursts[knob_name],
            "batch",
            burst_start_s=2.0,
            duration_s=settings.burst_duration_s,
            ssd=ssd,
            seed=settings.seed,
            device_scale=settings.burst_device_scale,
            executor=executor,
        )
        burst_ms[knob_name] = response.response_ms

    # ---- Score --------------------------------------------------------
    table = TableOne()
    for knob_name in CONTROL_KNOBS:
        clusters, span_fraction, hard_ok = front_stats[knob_name]
        inputs = DesiderataInputs(
            knob=knob_name,
            peak_bandwidth_ratio_vs_none=peak_bandwidth(bw, knob_name, 1) / none_peak,
            p99_overhead_1app=lc.p99(knob_name, 1) / none_p99_1 - 1.0,
            p99_overhead_saturated=lc.p99(knob_name, 16) / none_p99_16 - 1.0,
            fairness_uniform_16=uniform16[knob_name],
            fairness_weighted_2=weighted2[knob_name],
            fairness_weighted_16=weighted16[knob_name],
            fairness_mixed_sizes=mixed_sizes[knob_name],
            static_configuration=knob_name in STATIC_KNOBS,
            front_clusters_rand4k=clusters,
            front_utilization_span_fraction=span_fraction,
            hard_variants_effective=hard_ok,
            has_prioritization=knob_name not in NO_PRIORITIZATION,
            burst_response_ms=burst_ms[knob_name],
        )
        table.rows.append(score_all(inputs))
        table.inputs[knob_name] = inputs
    return table
