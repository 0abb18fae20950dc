"""Placement evaluation: measured per-device scores and knob configs.

A :class:`~repro.fleet.placement.Placement` is judged on *predicted*
violations; this module measures what the placement actually delivers.
Every occupied device becomes one single-device scenario (its resident
tenants' workloads co-located), and devices where cgroup I/O control
can help — at least two residents, at least one p99 objective — are
additionally handed to :func:`repro.tune.advisor.advise`, which
searches the configured knob spaces per device and reports the best
knob *configuration* alongside the assignment (placement says *where*,
tuning says *how*; the paper's Table I per device).

The fleet-wide **SLO-violation score** is the sum of every device's
best measured score plus an eviction penalty per unplaced tenant
(:func:`~repro.fleet.placement.eviction_penalty`) — the scalar
``isol-bench place`` compares strategies on. Lower is better; 0 means
every placed tenant meets its SLO and nobody was evicted.

Cache behaviour: single-resident and pair devices render the *exact*
solo/pair scenarios the interference matrix already ran, so evaluating
a placement against a warm cache re-executes nothing for untuned
devices; tuned devices add one advisor search per knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import NoneKnob, Scenario
from repro.core.report import render_table
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.fleet.interference import (
    InterferenceMatrix,
    MatrixSettings,
    MINI_MATRIX,
    QUICK_MATRIX,
    pair_scenario,
    solo_scenario,
)
from repro.fleet.placement import Placement, eviction_penalty
from repro.fleet.spec import FleetSpec
from repro.metrics.latency import seq_sum
from repro.tune.advisor import advise
from repro.tune.evaluator import TuneEvaluator
from repro.tune.slo import SloScore, SloSpec, score_summary
from repro.tune.space import TUNABLE_KNOBS, build_space


@dataclass(frozen=True)
class PlacementSettings:
    """Effort level for placement evaluation (measurement + tuning)."""

    #: Timeline/scale of every measurement scenario (shared with the
    #: interference matrix, so solo/pair runs hit the same cache keys).
    matrix: MatrixSettings = field(default_factory=MatrixSettings)
    #: Knob spaces the per-device advisor searches.
    tune_knobs: tuple[str, ...] = ("io.max", "io.latency")
    #: Per-knob advisor evaluation budget.
    budget: int = 8
    #: Search strategy ("auto" defers to each space's default).
    search_strategy: str = "auto"
    #: Host cores for every scenario.
    cores: int = 10

    def __post_init__(self) -> None:
        unknown = set(self.tune_knobs) - set(TUNABLE_KNOBS)
        if unknown:
            raise ValueError(
                f"unknown knobs {sorted(unknown)}; options: {TUNABLE_KNOBS}"
            )
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


def mini_settings() -> PlacementSettings:
    """The ``place --mini`` effort level: seconds of wall time."""
    return PlacementSettings(matrix=MINI_MATRIX, tune_knobs=("io.max",), budget=3)


def quick_settings() -> PlacementSettings:
    """The ``place --quick`` effort level: CI-friendly fidelity."""
    return PlacementSettings(
        matrix=QUICK_MATRIX, tune_knobs=("io.max", "io.latency"), budget=4
    )


def device_scenario(
    fleet: FleetSpec, residents: tuple[str, ...], settings: MatrixSettings
) -> Scenario:
    """The untuned measurement scenario for one device's residents.

    Residents are normalized to tenant declaration order, and one- and
    two-resident devices reuse the matrix's solo/pair scenario builders
    verbatim — identical content, identical cache key, zero re-runs
    against a warm matrix cache.
    """
    ordered = tuple(
        name for name in fleet.tenant_names() if name in residents
    )
    if not ordered:
        raise ValueError("cannot build a scenario for an empty device")
    if len(ordered) == 1:
        return solo_scenario(fleet, fleet.tenant(ordered[0]), settings)
    if len(ordered) == 2:
        return pair_scenario(
            fleet, fleet.tenant(ordered[0]), fleet.tenant(ordered[1]), settings
        )
    return Scenario(
        name=f"fleet-{fleet.name}-dev-{'+'.join(ordered)}",
        knob=NoneKnob(),
        apps=[fleet.tenant(name).job_spec() for name in ordered],
        ssd_model=fleet.ssd_model(),
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        device_scale=settings.device_scale,
    )


def device_slo(fleet: FleetSpec, residents: tuple[str, ...]) -> SloSpec | None:
    """The SLO spec covering one device's residents; None if no objectives."""
    groups = tuple(
        group
        for group in (fleet.tenant(name).group_slo() for name in residents)
        if group is not None
    )
    return SloSpec(groups=groups) if groups else None


def _tuning_groups(
    fleet: FleetSpec,
    matrix: InterferenceMatrix,
    residents: tuple[str, ...],
) -> tuple[str, str] | None:
    """Pick the (priority, best-effort) cgroups for a device's tuner.

    The priority group belongs to the resident with the tightest p99
    ceiling; the best-effort group to the co-resident with the largest
    solo bandwidth demand (the aggressor worth throttling). Returns None
    when the device cannot benefit from tuning: fewer than two
    residents, or no p99 objective to protect.
    """
    if len(residents) < 2:
        return None
    with_p99 = [
        (fleet.tenant(name).p99_target_us, name)
        for name in residents
        if fleet.tenant(name).p99_target_us is not None
    ]
    if not with_p99:
        return None
    priority = min(with_p99)[1]
    others = [name for name in residents if name != priority]
    be = max(others, key=lambda name: (matrix.solo[name].bandwidth_mib_s, name))
    return fleet.tenant(priority).cgroup, fleet.tenant(be).cgroup


@dataclass
class DeviceEvaluation:
    """One device's measured outcome: residents, knob config, score."""

    #: Device slot name.
    slot: str
    #: Residents, in tenant declaration order.
    tenants: tuple[str, ...]
    #: Knob the device ends up running ("none" when untuned).
    knob: str
    #: Sysfs-flavoured rendering of the knob configuration ("" if none).
    settings: str
    #: Measured SLO score; None for devices with no objectives.
    score: SloScore | None
    #: True when the advisor searched this device's knob spaces.
    tuned: bool = False

    @property
    def total(self) -> float:
        """The device's contribution to the fleet score."""
        return self.score.total if self.score is not None else 0.0

    def to_json_dict(self) -> dict:
        """Plain-dict form for reports and goldens."""
        return {
            "slot": self.slot,
            "tenants": list(self.tenants),
            "knob": self.knob,
            "settings": self.settings,
            "tuned": self.tuned,
            "score": self.score.to_json_dict() if self.score else None,
            "total": self.total,
        }


@dataclass
class PlacementReport:
    """One strategy's full outcome: assignment, knobs, fleet score."""

    placement: Placement
    devices: list[DeviceEvaluation]
    #: Summed eviction penalties (part of the fleet score).
    eviction_total: float = 0.0

    @property
    def fleet_score(self) -> float:
        """The fleet-wide SLO-violation score (lower is better)."""
        return seq_sum(device.total for device in self.devices) + self.eviction_total

    @property
    def meets_slo(self) -> bool:
        """True when every device meets its SLO and nobody was evicted."""
        return self.fleet_score == 0.0

    def to_json_dict(self) -> dict:
        """Plain-dict form for goldens and the CLI's ``--json`` output."""
        return {
            "strategy": self.placement.strategy,
            "placement": self.placement.to_json_dict(),
            "devices": [device.to_json_dict() for device in self.devices],
            "eviction_total": self.eviction_total,
            "fleet_score": self.fleet_score,
            "meets_slo": self.meets_slo,
        }

    def render(self) -> str:
        """Per-device text table for one strategy."""
        headers = ("device", "tenants", "knob", "score", "configuration")
        rows = []
        for device in self.devices:
            rows.append(
                (
                    device.slot,
                    "+".join(device.tenants) if device.tenants else "(idle)",
                    device.knob,
                    f"{device.total:.3f}",
                    device.settings or "-",
                )
            )
        for name in self.placement.evicted:
            rows.append((name, "EVICTED", "-", "-", "-"))
        title = (
            f"strategy={self.placement.strategy}  "
            f"fleet score={self.fleet_score:.3f}"
        )
        return render_table(headers, rows, title=title)


def evaluate_placement(
    fleet: FleetSpec,
    placement: Placement,
    matrix: InterferenceMatrix,
    settings: PlacementSettings | None = None,
    executor: SweepExecutor | None = None,
) -> PlacementReport:
    """Measure what a placement delivers, device by device.

    Untuned devices (single resident, or no p99 objective to protect)
    run their co-location scenario once under ``NoneKnob`` and are
    scored directly; tunable devices run one advisor search per knob in
    ``settings.tune_knobs`` and contribute their best *tuned* score plus
    the winning knob configuration. Deterministic at any worker count.
    """
    settings = settings or PlacementSettings()
    runner = resolve_executor(executor)
    ssd = fleet.ssd_model()
    timeline = settings.matrix
    devices: list[DeviceEvaluation] = []

    # Untuned devices batch into one sweep; tuned devices then run
    # their advisor searches (each its own sweep inside advise()).
    plain: list[tuple[str, tuple[str, ...], SloSpec | None]] = []
    tunable: list[tuple[str, tuple[str, ...], SloSpec, tuple[str, str]]] = []
    for slot in fleet.slots():
        residents = tuple(
            name
            for name in fleet.tenant_names()
            if name in placement.residents(slot)
        )
        slo = device_slo(fleet, residents)
        groups = _tuning_groups(fleet, matrix, residents) if slo else None
        if slo is not None and groups is not None:
            tunable.append((slot, residents, slo, groups))
        else:
            plain.append((slot, residents, slo))

    scored = [
        (slot, residents, slo)
        for slot, residents, slo in plain
        if residents and slo is not None
    ]
    summaries = runner.run_strict(
        [
            device_scenario(fleet, residents, timeline)
            for _, residents, _ in scored
        ]
    )
    plain_scores = {
        slot: score_summary(slo, summary, ssd=ssd)
        for (slot, _, slo), summary in zip(scored, summaries)
    }

    for slot, residents, slo in plain:
        devices.append(
            DeviceEvaluation(
                slot=slot,
                tenants=residents,
                knob="none",
                settings="",
                score=plain_scores.get(slot),
                tuned=False,
            )
        )

    for slot, residents, slo, (priority_group, be_group) in tunable:
        apps = [fleet.tenant(name).job_spec() for name in residents]
        searches = []
        for knob_name in settings.tune_knobs:
            space = build_space(
                knob_name,
                ssd,
                device_scale=timeline.device_scale,
                priority_group=priority_group,
                be_group=be_group,
            )
            evaluator = TuneEvaluator(
                space=space,
                slo=slo,
                apps=apps,
                ssd=ssd,
                device_scale=timeline.device_scale,
                duration_s=timeline.duration_s,
                warmup_s=timeline.warmup_s,
                seed=timeline.seed,
                cores=settings.cores,
                executor=executor,
            )
            searches.append((space, evaluator))
        advice = advise(
            searches,
            slo,
            budget=settings.budget,
            strategy=settings.search_strategy,
            seed=timeline.seed,
        )
        winner = advice.recommended()
        devices.append(
            DeviceEvaluation(
                slot=slot,
                tenants=residents,
                knob=winner.knob,
                settings=winner.settings,
                score=winner.best.score,
                tuned=True,
            )
        )

    devices.sort(key=lambda device: device.slot)
    return PlacementReport(
        placement=placement,
        devices=devices,
        eviction_total=seq_sum(
            eviction_penalty(fleet, name) for name in placement.evicted
        ),
    )
