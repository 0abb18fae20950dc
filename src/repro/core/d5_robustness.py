"""D5: robustness — which knob still isolates when the SSD misbehaves?

Table I ranks the five cgroup I/O-control knobs on a *healthy* device.
The paper's own GC discussion (flash preconditioning, §III) shows that
isolation quality collapses exactly when the device degrades, so D5
re-asks the central question under fault injection: the §VI-B trade-off
shape (one latency-critical app + saturating best-effort readers) is run
once healthy and once under each :mod:`repro.faults` preset, with every
knob in its protecting configuration (the same configurations the D4
burst study uses).

The score is the **degradation ratio**: the LC app's p99 latency under a
fault divided by its p99 on the healthy device, same knob. A ratio near
1 means the knob absorbs the fault (the BE apps eat the lost capacity);
a large ratio means the fault blows through the protection. Knobs are
ranked by their mean ratio across fault classes, mirroring how Table I
ranks them when healthy.

Everything fans out through the sweep executor in a single batch, so
``isol-bench d5 --workers N`` parallelizes the whole (knob x fault)
matrix and reruns hit the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import KnobConfig, Scenario
from repro.core.d4_bursts import burst_knobs
from repro.core.scenarios import BE_GROUP, robustness_specs
from repro.core.table_one import CONTROL_KNOBS
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.exec.summary import ScenarioSummary
from repro.faults import FAULT_CLASSES, get_fault_plan
from repro.metrics.latency import seq_sum
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like

#: The fault classes the acceptance table covers; ``isol-bench d5``
#: accepts any subset of repro.faults.FAULT_CLASSES.
DEFAULT_FAULT_CLASSES = ("latency-spike", "gc-storm", "transient-error")

#: Label for the no-faults baseline column.
HEALTHY = "healthy"


@dataclass
class RobustnessSettings:
    """Effort level and fault matrix for the D5 evaluation."""

    ssd: SsdModel = None  # type: ignore[assignment]
    fault_classes: tuple[str, ...] = DEFAULT_FAULT_CLASSES
    duration_s: float = 2.0
    warmup_s: float = 0.5
    device_scale: float = 8.0
    lc_target_us: float = 400.0
    be_queue_depth: int = 64
    n_be_apps: int = 4
    cores: int = 10
    seed: int = 42

    def __post_init__(self) -> None:
        if self.ssd is None:
            self.ssd = samsung_980pro_like()
        if not self.fault_classes:
            raise ValueError("need at least one fault class")
        unknown = set(self.fault_classes) - set(FAULT_CLASSES)
        if unknown:
            raise ValueError(
                f"unknown fault classes {sorted(unknown)}; "
                f"options: {sorted(FAULT_CLASSES)}"
            )


def quick_settings() -> RobustnessSettings:
    """The ``d5 --quick`` effort level (shared by CLI and goldens)."""
    return RobustnessSettings(
        duration_s=0.8,
        warmup_s=0.2,
        device_scale=8.0,
        be_queue_depth=64,
    )


def mini_settings() -> RobustnessSettings:
    """Tier-1 / CI-smoke effort: seconds of wall time, still 3 classes."""
    return RobustnessSettings(
        duration_s=0.3,
        warmup_s=0.1,
        device_scale=16.0,
        be_queue_depth=32,
        n_be_apps=2,
    )


def robustness_knobs(settings: RobustnessSettings) -> dict[str, KnobConfig]:
    """Protecting configuration per knob, in scaled-device units.

    Reuses the D4 burst configurations: knob values (io.max caps,
    io.latency/io.cost latency targets) are absolute sysfs numbers
    interpreted against the scaled device, so they are derived from the
    scaled model and a scaled LC target.
    """
    scaled = settings.ssd.scaled(settings.device_scale)
    return burst_knobs(
        scaled, "lc", lc_target_us=settings.lc_target_us * settings.device_scale
    )


@dataclass
class RobustnessOutcome:
    """One (knob, fault-class) cell of the D5 matrix."""

    knob: str
    fault_class: str
    prio_p99_us: float
    prio_mib_s: float
    be_mib_s: float
    retries: float = 0.0
    timeouts: float = 0.0
    failures_delivered: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "knob": self.knob,
            "fault_class": self.fault_class,
            "prio_p99_us": self.prio_p99_us,
            "prio_mib_s": self.prio_mib_s,
            "be_mib_s": self.be_mib_s,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures_delivered": self.failures_delivered,
        }


@dataclass
class KnobRobustness:
    """One knob's healthy baseline plus its per-fault outcomes."""

    knob: str
    healthy: RobustnessOutcome
    degraded: dict[str, RobustnessOutcome] = field(default_factory=dict)

    def p99_ratio(self, fault_class: str) -> float:
        """Degradation ratio: faulted p99 over healthy p99 (lower=better)."""
        return self.degraded[fault_class].prio_p99_us / self.healthy.prio_p99_us

    @property
    def mean_p99_ratio(self) -> float:
        ratios = [self.p99_ratio(name) for name in sorted(self.degraded)]
        return seq_sum(ratios) / len(ratios)


@dataclass
class RobustnessTable:
    """The D5 result: knobs ranked by mean degradation ratio."""

    fault_classes: list[str]
    rows: list[KnobRobustness] = field(default_factory=list)

    def rank(self) -> list[KnobRobustness]:
        """Rows best-first (smallest mean degradation ratio)."""
        return sorted(self.rows, key=lambda row: (row.mean_p99_ratio, row.knob))

    def row(self, knob: str) -> KnobRobustness:
        for candidate in self.rows:
            if candidate.knob == knob:
                return candidate
        raise KeyError(f"no row for knob {knob!r}")

    def render(self) -> str:
        """Text ranking table (the ``isol-bench d5`` output)."""
        header = (
            f"{'rank':<5}{'knob':<14}{'healthy p99':>12}"
            + "".join(f"{name:>18}" for name in self.fault_classes)
            + f"{'mean ratio':>12}"
        )
        lines = [header, "-" * len(header)]
        for position, row in enumerate(self.rank(), start=1):
            cells = "".join(
                f"{row.p99_ratio(name):>17.2f}x" for name in self.fault_classes
            )
            lines.append(
                f"{position:<5}{row.knob:<14}"
                f"{row.healthy.prio_p99_us:>10.0f}us"
                f"{cells}{row.mean_p99_ratio:>11.2f}x"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Golden-friendly document (insertion order is rank order)."""
        return {
            "fault_classes": list(self.fault_classes),
            "ranking": [row.knob for row in self.rank()],
            "rows": {
                row.knob: {
                    "healthy": row.healthy.to_json_dict(),
                    "degraded": {
                        name: row.degraded[name].to_json_dict()
                        for name in sorted(row.degraded)
                    },
                    "mean_p99_ratio": row.mean_p99_ratio,
                }
                for row in self.rank()
            },
        }


def _outcome(
    summary: ScenarioSummary, knob_name: str, fault_class: str
) -> RobustnessOutcome:
    """Distill one run into its D5 cell."""
    prio = summary.app_stats("prio")
    be_mib_s = seq_sum(
        stats.bandwidth_mib_s
        for stats in summary.cgroup_stats().values()
        if stats.cgroup_path == BE_GROUP
    )
    counters = summary.fault_counters
    if prio.latency is None:
        raise RuntimeError(
            f"d5 run {knob_name}/{fault_class}: the LC app completed no "
            f"requests in the measurement window; the fault plan starved "
            f"it entirely — lengthen duration_s or soften the plan"
        )
    return RobustnessOutcome(
        knob=knob_name,
        fault_class=fault_class,
        prio_p99_us=prio.latency.p99_us,
        prio_mib_s=prio.bandwidth_mib_s,
        be_mib_s=be_mib_s,
        retries=counters.get("retries", 0.0),
        timeouts=counters.get("timeouts", 0.0),
        failures_delivered=counters.get("failures_delivered", 0.0),
    )


def evaluate_robustness(
    settings: RobustnessSettings | None = None,
    executor: SweepExecutor | None = None,
) -> RobustnessTable:
    """Run the (knob x {healthy + fault classes}) matrix and rank knobs."""
    settings = settings or RobustnessSettings()
    executor = resolve_executor(executor)
    knobs = robustness_knobs(settings)
    specs = robustness_specs(
        be_queue_depth=settings.be_queue_depth, n_be_apps=settings.n_be_apps
    )
    columns = [HEALTHY, *settings.fault_classes]

    scenarios = []
    labels = []
    for knob_name in CONTROL_KNOBS:
        for fault_class in columns:
            faults = None if fault_class == HEALTHY else get_fault_plan(fault_class)
            scenarios.append(
                Scenario(
                    name=f"d5-{knob_name}-{fault_class}",
                    knob=knobs[knob_name],
                    apps=specs,
                    ssd_model=settings.ssd,
                    cores=settings.cores,
                    duration_s=settings.duration_s,
                    warmup_s=settings.warmup_s,
                    seed=settings.seed,
                    device_scale=settings.device_scale,
                    faults=faults,
                )
            )
            labels.append((knob_name, fault_class))

    summaries = resolve_executor(executor).run_strict(scenarios)

    table = RobustnessTable(fault_classes=list(settings.fault_classes))
    by_label = dict(zip(labels, summaries))
    for knob_name in CONTROL_KNOBS:
        healthy = _outcome(by_label[(knob_name, HEALTHY)], knob_name, HEALTHY)
        row = KnobRobustness(knob=knob_name, healthy=healthy)
        for fault_class in settings.fault_classes:
            row.degraded[fault_class] = _outcome(
                by_label[(knob_name, fault_class)], knob_name, fault_class
            )
        table.rows.append(row)
    return table
