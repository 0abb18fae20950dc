"""D8: online control — does re-tuning knobs mid-run hold the SLO?

The D6 study tunes a knob configuration against one load level and
freezes it. The paper's own remedy discussion (§VII) points out that
static settings go stale the moment the load does something the tuner
never saw: io.max "requires practitioners to [...] adjust values as new
groups start or stop", io.cost's QoS window is a fixed bet on the
device's behaviour, io.latency's target is a fixed bet on the tenant's.
D8 quantifies exactly that staleness and whether the :mod:`repro.ctl`
feedback plane repairs it.

The matrix is (knob x arrival pattern x {static, online}):

* **knobs** -- io.max (loose BE cap), io.cost (weights + default QoS),
  io.latency (loose target), each *tuned at the base load*: the static
  configuration demonstrably meets the SLO on the steady pattern.
* **patterns** -- steady (the tuning condition), a diurnal ramp, a
  flash crowd, a flash crowd during a GC storm (:mod:`repro.faults`
  adversary), and tenant start/stop churn.
* **modes** -- static keeps the knob files frozen; online attaches a
  :class:`~repro.ctl.CtlConfig` with the *same* static starting point
  and lets the matching controller rewrite the files from live drift.

The headline result is the set of (knob, pattern) cells where the
online controller holds a p99 SLO the static configuration violates --
pinned by the d8 golden. Everything fans out through the sweep executor
in one batch, so ``isol-bench ctl --workers N`` parallelizes the matrix
and reruns hit the result cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.core.config import (
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    KnobConfig,
    Scenario,
)
from repro.core.scenarios import BE_GROUP, PRIORITY_GROUP
from repro.ctl import CtlConfig, IoMaxCtlParams
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.exec.summary import ScenarioSummary
from repro.faults import get_fault_plan
from repro.iorequest import KIB, OpType, Pattern
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like
from repro.tune.slo import GroupSlo, SloSpec
from repro.workloads.apps import be_app, lc_app
from repro.workloads.patterns import (
    churn_windows,
    diurnal_phases,
    flash_crowd_phases,
)
from repro.workloads.spec import ArrivalPhase, JobSpec

#: The arrival patterns of the D8 matrix, in report order. ``steady``
#: is the tuning condition (static must meet the SLO there, proving the
#: configurations are tuned-at-base rather than strawmen).
DEFAULT_PATTERNS = (
    "steady",
    "diurnal",
    "flash-crowd",
    "flash-crowd-gc",
    "churn",
)

#: The knobs under test (the three the ctl plane has controllers for).
CTL_KNOBS = ("io.max", "io.cost", "io.latency")

#: The two modes of every (knob, pattern) cell.
STATIC, ONLINE = "static", "online"


@dataclass
class OnlineControlSettings:
    """Effort level and matrix shape for the D8 evaluation."""

    ssd: SsdModel = None  # type: ignore[assignment]
    patterns: tuple[str, ...] = DEFAULT_PATTERNS
    knobs: tuple[str, ...] = CTL_KNOBS
    duration_s: float = 3.2
    warmup_s: float = 0.4
    device_scale: float = 32.0
    #: Full-device-speed p99 SLO on the priority group, microseconds.
    slo_p99_us: float = 300.0
    #: Open-loop BE arrival rates, as fractions of the scaled device's
    #: 4 KiB random-read saturation IOPS.
    base_fraction: float = 0.2
    peak_fraction: float = 1.0
    crowd_fraction: float = 1.1
    #: Flash-crowd timing, as fractions of ``duration_s``.
    crowd_start_fraction: float = 0.3
    crowd_duration_fraction: float = 0.4
    #: Static io.max cap on the BE group, as a fraction of saturation
    #: bandwidth -- loose enough to be harmless at base load, and (just)
    #: loose enough to admit the whole flash crowd: the cap is tuned to
    #: the base level, not the crowd.
    static_cap_fraction: float = 1.05
    #: Static io.latency target, as a multiple of the SLO target.
    static_target_slack: float = 2.5
    #: Churn population: closed-loop tenants with staggered windows.
    n_churn_tenants: int = 5
    churn_overlap: float = 3.0
    churn_queue_depth: int = 96
    #: Control-plane cadence (raw simulated microseconds).
    ctl_period_us: float = 100_000.0
    ctl_sample_period_us: float = 20_000.0
    #: NVMe submission queue depth of the modelled device. D8 lowers the
    #: preset's 1024: blk-iolatency adapts queue depths by *halving once
    #: per 500 ms window*, so from 1024 a binding limit is tens of
    #: seconds away (the paper's O10 slow-reaction observation) -- far
    #: beyond any d8 run. From 128 the halving cadence reaches a
    #: binding depth within a load shift, which is the regime where an
    #: adaptive target can matter at all.
    nvme_max_qd: int = 128
    cores: int = 10
    seed: int = 42

    def __post_init__(self) -> None:
        if self.ssd is None:
            self.ssd = samsung_980pro_like()
        if self.ssd.nvme_max_qd != self.nvme_max_qd:
            self.ssd = dataclasses.replace(self.ssd, nvme_max_qd=self.nvme_max_qd)
        if not self.patterns:
            raise ValueError("need at least one arrival pattern")
        if not self.knobs:
            raise ValueError("need at least one knob")
        unknown = set(self.patterns) - set(DEFAULT_PATTERNS)
        if unknown:
            raise ValueError(
                f"unknown patterns: {sorted(unknown)}; "
                f"options: {list(DEFAULT_PATTERNS)}"
            )
        unknown = set(self.knobs) - set(CTL_KNOBS)
        if unknown:
            raise ValueError(
                f"unknown knobs: {sorted(unknown)}; options: {list(CTL_KNOBS)}"
            )

    @property
    def duration_us(self) -> float:
        """Scenario duration in simulated microseconds."""
        return self.duration_s * 1e6

    def saturation_iops(self) -> float:
        """4 KiB random-read saturation of the *scaled* device, IOPS."""
        scaled = self.ssd.scaled(self.device_scale)
        return scaled.saturation_bandwidth_bps(
            OpType.READ, Pattern.RANDOM, 4 * KIB
        ) / (4 * KIB)


def quick_settings() -> OnlineControlSettings:
    """The ``ctl --quick`` effort level (longer windows, same matrix)."""
    return OnlineControlSettings(
        duration_s=4.8,
        warmup_s=0.6,
        device_scale=24.0,
    )


def mini_settings() -> OnlineControlSettings:
    """Tier-1 / CI-smoke effort: the full matrix in seconds of wall time."""
    return OnlineControlSettings()


def slo_spec(settings: OnlineControlSettings) -> SloSpec:
    """The D8 contract: a p99 ceiling on the priority group."""
    return SloSpec(
        groups=(GroupSlo(PRIORITY_GROUP, p99_latency_us=settings.slo_p99_us),)
    )


def static_knobs(settings: OnlineControlSettings) -> dict[str, KnobConfig]:
    """Static configurations tuned at the base load, scaled-device units.

    Each is *correct* for the steady pattern (the d8 golden pins that)
    and *stale* under load shifts: the io.max cap admits a full crowd,
    the io.cost QoS window never shrinks, the io.latency target is
    slack enough that blk-iolatency's throttling never engages.
    """
    scaled = settings.ssd.scaled(settings.device_scale)
    saturation_bps = scaled.saturation_bandwidth_bps(
        OpType.READ, Pattern.RANDOM, 4 * KIB
    )
    return {
        "io.max": IoMaxKnob(
            limits={
                BE_GROUP: {"rbps": settings.static_cap_fraction * saturation_bps}
            }
        ),
        "io.cost": IoCostKnob(weights={PRIORITY_GROUP: 10000, BE_GROUP: 100}),
        "io.latency": IoLatencyKnob(
            targets_us={
                PRIORITY_GROUP: settings.slo_p99_us
                * settings.static_target_slack
                * settings.device_scale
            }
        ),
    }


def ctl_config(settings: OnlineControlSettings) -> CtlConfig:
    """The control-plane attachment shared by every online cell.

    The io.max loop gets a deeper per-step cut than the library default:
    a flash crowd shows up between two control windows, so the first
    drift reaction must shed most of the aggressor's admission at once
    -- the slow asymmetric recovery then reclaims it.
    """
    return CtlConfig(
        slo=slo_spec(settings),
        period_us=settings.ctl_period_us,
        sample_period_us=settings.ctl_sample_period_us,
        iomax=IoMaxCtlParams(max_step_fraction=0.75),
    )


def pattern_specs(settings: OnlineControlSettings, pattern: str) -> list[JobSpec]:
    """The app set of one pattern: LC priority app + shaped BE load.

    The priority app is the paper's LC archetype (closed-loop QD=1 4 KiB
    random reads), always on. The best-effort load is an open-loop
    phased aggressor shaped by the pattern -- except ``churn``, where it
    is a population of closed-loop tenants starting and stopping on
    staggered windows.
    """
    priority = lc_app("prio", PRIORITY_GROUP)
    sat_iops = settings.saturation_iops()
    base = settings.base_fraction * sat_iops
    if pattern == "churn":
        tenants = [
            be_app(
                f"be{i}",
                BE_GROUP,
                queue_depth=settings.churn_queue_depth,
                windows=churn_windows(
                    i,
                    settings.n_churn_tenants,
                    settings.duration_us,
                    overlap=settings.churn_overlap,
                ),
            )
            for i in range(settings.n_churn_tenants)
        ]
        return [priority] + tenants
    if pattern == "steady":
        phases = (ArrivalPhase(0.0, math.inf, base),)
    elif pattern == "diurnal":
        phases = diurnal_phases(
            base,
            settings.peak_fraction * sat_iops,
            period_us=settings.duration_us,
            steps=8,
        )
    elif pattern in ("flash-crowd", "flash-crowd-gc"):
        phases = flash_crowd_phases(
            base,
            settings.crowd_fraction * sat_iops,
            crowd_start_us=settings.crowd_start_fraction * settings.duration_us,
            crowd_duration_us=settings.crowd_duration_fraction
            * settings.duration_us,
        )
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    aggressor = JobSpec(
        name="be-load",
        cgroup_path=BE_GROUP,
        size=4 * KIB,
        pattern=Pattern.RANDOM,
        read_fraction=1.0,
        arrival_phases=phases,
        app_class="be",
    )
    return [priority, aggressor]


@dataclass
class CellOutcome:
    """One (knob, pattern, mode) run of the D8 matrix."""

    knob: str
    pattern: str
    mode: str
    #: Priority-group p99 at full device speed, microseconds.
    prio_p99_us: float
    prio_mib_s: float
    be_mib_s: float
    slo_met: bool
    #: Knob-file rewrites the controller applied (0 for static cells).
    ctl_applied: float = 0.0
    ctl_steps: float = 0.0

    def to_json_dict(self) -> dict:
        """Golden-friendly cell record."""
        return {
            "knob": self.knob,
            "pattern": self.pattern,
            "mode": self.mode,
            "prio_p99_us": self.prio_p99_us,
            "prio_mib_s": self.prio_mib_s,
            "be_mib_s": self.be_mib_s,
            "slo_met": self.slo_met,
            "ctl_applied": self.ctl_applied,
            "ctl_steps": self.ctl_steps,
        }


@dataclass
class CellPair:
    """The static and online outcomes of one (knob, pattern) cell."""

    knob: str
    pattern: str
    static: CellOutcome
    online: CellOutcome

    @property
    def online_holds(self) -> bool:
        """The headline condition: online meets the SLO static loses."""
        return self.online.slo_met and not self.static.slo_met

    @property
    def p99_improvement(self) -> float:
        """Static p99 over online p99 (>1 means the controller helped)."""
        if self.online.prio_p99_us <= 0:
            return float("inf")
        return self.static.prio_p99_us / self.online.prio_p99_us


@dataclass
class OnlineControlTable:
    """The D8 result: per-(knob, pattern) static vs online outcomes."""

    slo_p99_us: float
    patterns: list[str]
    knobs: list[str]
    pairs: dict[tuple[str, str], CellPair] = field(default_factory=dict)

    def pair(self, knob: str, pattern: str) -> CellPair:
        """One cell of the matrix."""
        return self.pairs[(knob, pattern)]

    def holds(self) -> list[tuple[str, str]]:
        """Cells where the online controller holds what static loses."""
        return [
            (knob, pattern)
            for knob in self.knobs
            for pattern in self.patterns
            if self.pairs[(knob, pattern)].online_holds
        ]

    def render(self) -> str:
        """Text matrix (the ``isol-bench ctl`` output).

        Each cell shows ``static -> online`` p99 in full-speed
        microseconds, each side marked with whether it met the SLO.
        """
        width = 24
        header = f"{'knob':<12}" + "".join(
            f"{name:>{width}}" for name in self.patterns
        )
        lines = [
            f"priority p99 SLO: {self.slo_p99_us:.0f}us "
            f"(static -> online, * = SLO met)",
            header,
            "-" * len(header),
        ]
        for knob in self.knobs:
            cells = []
            for pattern in self.patterns:
                pair = self.pairs[(knob, pattern)]
                cell = (
                    f"{pair.static.prio_p99_us:.0f}"
                    f"{'*' if pair.static.slo_met else ' '}"
                    f"->{pair.online.prio_p99_us:.0f}"
                    f"{'*' if pair.online.slo_met else ' '}"
                )
                cells.append(f"{cell:>{width}}")
            lines.append(f"{knob:<12}" + "".join(cells))
        held = self.holds()
        if held:
            lines.append(
                "online holds where static violates: "
                + ", ".join(f"{knob}/{pattern}" for knob, pattern in held)
            )
        else:
            lines.append("online holds where static violates: none")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Golden-friendly document (cells keyed ``knob/pattern``)."""
        return {
            "slo_p99_us": self.slo_p99_us,
            "patterns": list(self.patterns),
            "knobs": list(self.knobs),
            "holds": [f"{knob}/{pattern}" for knob, pattern in self.holds()],
            "cells": {
                f"{knob}/{pattern}": {
                    STATIC: self.pairs[(knob, pattern)].static.to_json_dict(),
                    ONLINE: self.pairs[(knob, pattern)].online.to_json_dict(),
                }
                for knob in self.knobs
                for pattern in self.patterns
            },
        }


def _outcome(
    summary: ScenarioSummary,
    settings: OnlineControlSettings,
    knob: str,
    pattern: str,
    mode: str,
) -> CellOutcome:
    """Distill one run into its D8 cell."""
    groups = summary.cgroup_stats()
    prio = groups.get(PRIORITY_GROUP)
    if prio is None or prio.latency is None:
        raise RuntimeError(
            f"d8 run {knob}/{pattern}/{mode}: the priority app completed no "
            f"requests in the measurement window — the load shape starved "
            f"it entirely; lengthen duration_s or soften the pattern"
        )
    be = groups.get(BE_GROUP)
    p99_full_speed = prio.latency.p99_us / settings.device_scale
    counters = summary.ctl_counters
    applied = sum(
        value for key, value in counters.items() if key.endswith(".applied")
    )
    return CellOutcome(
        knob=knob,
        pattern=pattern,
        mode=mode,
        prio_p99_us=p99_full_speed,
        prio_mib_s=prio.bandwidth_mib_s * settings.device_scale,
        be_mib_s=(be.bandwidth_mib_s * settings.device_scale) if be else 0.0,
        slo_met=p99_full_speed <= settings.slo_p99_us,
        ctl_applied=applied,
        ctl_steps=counters.get("steps", 0.0),
    )


def build_scenarios(
    settings: OnlineControlSettings,
) -> tuple[list[Scenario], list[tuple[str, str, str]]]:
    """The full D8 scenario batch plus (knob, pattern, mode) labels."""
    knobs = static_knobs(settings)
    control = ctl_config(settings)
    scenarios: list[Scenario] = []
    labels: list[tuple[str, str, str]] = []
    for knob_name in settings.knobs:
        for pattern in settings.patterns:
            specs = pattern_specs(settings, pattern)
            faults = (
                get_fault_plan("gc-storm") if pattern == "flash-crowd-gc" else None
            )
            for mode in (STATIC, ONLINE):
                scenarios.append(
                    Scenario(
                        name=f"d8-{knob_name}-{pattern}-{mode}",
                        knob=knobs[knob_name],
                        apps=specs,
                        ssd_model=settings.ssd,
                        cores=settings.cores,
                        duration_s=settings.duration_s,
                        warmup_s=settings.warmup_s,
                        seed=settings.seed,
                        device_scale=settings.device_scale,
                        faults=faults,
                        ctl=control if mode == ONLINE else None,
                    )
                )
                labels.append((knob_name, pattern, mode))
    return scenarios, labels


def evaluate_online_control(
    settings: OnlineControlSettings | None = None,
    executor: SweepExecutor | None = None,
) -> OnlineControlTable:
    """Run the (knob x pattern x mode) matrix and pair the outcomes."""
    settings = settings or OnlineControlSettings()
    scenarios, labels = build_scenarios(settings)
    summaries = resolve_executor(executor).run_strict(scenarios)

    by_label = dict(zip(labels, summaries))
    table = OnlineControlTable(
        slo_p99_us=settings.slo_p99_us,
        patterns=list(settings.patterns),
        knobs=list(settings.knobs),
    )
    for knob_name in settings.knobs:
        for pattern in settings.patterns:
            static = _outcome(
                by_label[(knob_name, pattern, STATIC)],
                settings,
                knob_name,
                pattern,
                STATIC,
            )
            online = _outcome(
                by_label[(knob_name, pattern, ONLINE)],
                settings,
                knob_name,
                pattern,
                ONLINE,
            )
            table.pairs[(knob_name, pattern)] = CellPair(
                knob=knob_name, pattern=pattern, static=static, online=online
            )
    return table
