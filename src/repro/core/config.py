"""Scenario and knob configuration.

A :class:`Scenario` bundles everything one isol-bench run needs: the SSD
model and device count, the host core count, the knob under test with its
settings, the app set, and the measurement timeline. Knob configurations
know how to write themselves into the cgroup tree (as sysfs strings) and
which scheduler/throttler implementation plus CPU cost profile they
activate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # imported lazily to avoid a core <-> ctl import cycle
    from repro.ctl.config import CtlConfig

from repro.cgroups.hierarchy import CgroupHierarchy
from repro.cgroups.knobs import IoCostModelParams, IoCostQosParams
from repro.faults.plan import FaultPlan
from repro.obs.config import TraceConfig
from repro.prof.config import ProfConfig
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.spec import JobSpec


def device_id_for_index(index: int) -> str:
    """MAJ:MIN string for a simulated device (nvme0n1 -> 259:0, ...)."""
    return f"259:{index}"


class KnobConfig:
    """Base class for the five knob configurations (plus "none")."""

    #: key into :data:`repro.cpu.model.KNOB_PROFILES`
    profile_name = "none"
    #: human-readable label used in reports
    label = "none"

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        """Write knob files into the tree. Default: nothing to write."""

    def describe(self) -> str:
        return self.label


@dataclass
class NoneKnob(KnobConfig):
    """Baseline: no cgroup I/O control, none scheduler."""

    profile_name = "none"
    label = "none"


@dataclass
class MqDeadlineKnob(KnobConfig):
    """MQ-Deadline + io.prio.class.

    ``classes`` maps a cgroup path to a priority-class string
    ("realtime" / "best-effort" / "idle"). Unlisted groups keep the
    default (no class -> best-effort at dispatch).
    """

    classes: dict[str, str] = field(default_factory=dict)
    prio_aging_expire_us: float = 2_000_000.0

    profile_name = "mq-deadline"
    label = "mq-dl+io.prio.class"

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        for path, class_name in self.classes.items():
            hierarchy.find(path).write("io.prio.class", class_name)


@dataclass
class BfqKnob(KnobConfig):
    """BFQ + io.bfq.weight.

    ``weights`` maps cgroup paths to absolute weights (1-1000).
    ``slice_idle_us=0`` disables idling, as the paper does for the
    overhead experiments (§V); the prioritization experiments need it on.
    ``low_latency`` is always disabled, as in the paper (§III).
    """

    weights: dict[str, int] = field(default_factory=dict)
    slice_idle_us: float = 2_000.0
    slice_budget_bytes: int = 1024 * 1024
    slice_timeout_us: float = 25_000.0

    profile_name = "bfq"
    label = "bfq+io.bfq.weight"

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        for path, weight in self.weights.items():
            hierarchy.find(path).write("io.bfq.weight", str(weight))


@dataclass
class IoMaxKnob(KnobConfig):
    """io.max static limits.

    ``limits`` maps a cgroup path to per-key limits, e.g.
    ``{"/tenants/a": {"rbps": 100 * MIB}}``. Limits apply to every
    device in the scenario unless ``per_device`` narrows them.
    """

    limits: dict[str, dict[str, float]] = field(default_factory=dict)

    profile_name = "io.max"
    label = "io.max"

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        for path, keyvals in self.limits.items():
            group = hierarchy.find(path)
            rendered = " ".join(
                f"{key}={'max' if math.isinf(value) else int(value)}"
                for key, value in sorted(keyvals.items())
            )
            for device_id in device_ids:
                group.write("io.max", f"{device_id} {rendered}")


@dataclass
class DynamicIoMaxKnob(KnobConfig):
    """io.max under active management (PAIO/Tango-style, §VII).

    No static limits are written; a :class:`~repro.iocontrol.dynamic_iomax.
    DynamicIoMaxManager` re-translates ``weights`` into io.max limits over
    the currently active groups every ``adjust_period_us``.
    """

    weights: dict[str, int] = field(default_factory=dict)
    adjust_period_us: float = 100_000.0
    idle_floor_fraction: float = 0.05

    profile_name = "io.max"
    label = "io.max (managed)"


@dataclass
class IoLatencyKnob(KnobConfig):
    """io.latency per-group P90 targets (microseconds)."""

    targets_us: dict[str, float] = field(default_factory=dict)

    profile_name = "io.latency"
    label = "io.latency"

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        for path, target in self.targets_us.items():
            group = hierarchy.find(path)
            for device_id in device_ids:
                group.write("io.latency", f"{device_id} target={target:g}")


@dataclass
class IoCostKnob(KnobConfig):
    """io.cost + io.weight.

    ``model=None`` derives a model from the scenario's SSD (the paper's
    iocost_coef_gen workflow, with its conservatism); pass explicit
    :class:`IoCostModelParams` for the model-accuracy ablation.
    ``qos`` defaults to enabled with no latency target and a full
    25-100% vrate window; the paper's experiments override rlat/min/max.
    ``weights`` maps cgroup paths to io.weight values (1-10000).
    """

    weights: dict[str, int] = field(default_factory=dict)
    model: Optional[IoCostModelParams] = None
    qos: IoCostQosParams = field(
        default_factory=lambda: IoCostQosParams(enable=True, ctrl="user")
    )
    model_conservatism: float = 0.78

    profile_name = "io.cost"
    label = "io.cost+io.weight"

    def resolve_model(self, ssd: SsdModel) -> IoCostModelParams:
        """The model actually installed: explicit, or derived from ``ssd``."""
        if self.model is not None:
            return self.model
        from repro.tools.iocost_coef_gen import derive_model

        return derive_model(ssd, conservatism=self.model_conservatism)

    def configure(self, hierarchy: CgroupHierarchy, device_ids: list[str]) -> None:
        # io.cost.model / io.cost.qos are root-only knobs.
        for device_id in device_ids:
            qos = self.qos
            hierarchy.root.write(
                "io.cost.qos",
                f"{device_id} enable={int(qos.enable)} ctrl={qos.ctrl} "
                f"rpct={qos.rpct:g} rlat={qos.rlat_us:g} "
                f"wpct={qos.wpct:g} wlat={qos.wlat_us:g} "
                f"min={qos.vrate_min_pct:g} max={qos.vrate_max_pct:g}",
            )
        for path, weight in self.weights.items():
            hierarchy.find(path).write("io.weight", str(weight))


@dataclass
class Scenario:
    """One complete isol-bench run description."""

    name: str
    knob: KnobConfig
    apps: list[JobSpec]
    ssd_model: SsdModel = field(default_factory=samsung_980pro_like)
    num_devices: int = 1
    cores: int = 10
    duration_s: float = 1.0
    warmup_s: float = 0.2
    seed: int = 42
    preconditioned: bool = False
    # Slow the whole system down by this factor (pure time dilation;
    # event-count control for benches). See DESIGN.md "Simulation scale".
    device_scale: float = 1.0
    # Page-cache tunables for buffered (direct=False) jobs; None uses
    # defaults when any buffered job is present.
    page_cache: object | None = None
    # Observability: None (the default) keeps tracing and sampling fully
    # off -- no hooks are installed and the event loop runs the bare hot
    # path. A repro.obs.TraceConfig turns on request-lifecycle spans
    # and/or io.stat-style periodic sampling.
    trace: Optional[TraceConfig] = None
    # Fault injection: None (the default) wires no fault runtime at all
    # -- devices and the completion path behave exactly as before. A
    # repro.faults.FaultPlan installs per-device injectors plus the
    # host-side retry/timeout coordinator; the plan participates in the
    # exec cache key like every other field. Time-valued plan fields are
    # interpreted at device scale 1 and dilated by device_scale when the
    # host is wired.
    faults: Optional[FaultPlan] = None
    # Self-profiling: None (the default) runs the bare event loop; a
    # repro.prof.ProfConfig runs the same loop under cProfile and folds
    # each function's self time onto a pipeline phase by its module.
    # Profiling never changes simulation results (bit-identity is
    # test-pinned), but like tracing the artifact lives on the Host, so
    # profiled scenarios bypass the result cache.
    prof: Optional[ProfConfig] = None
    # Online control: None (the default) wires no control plane -- knob
    # files stay exactly as the static config wrote them. A
    # repro.ctl.CtlConfig attaches a dedicated (non-retaining) sampler
    # plus the controller matching the scenario's knob type, which
    # rewrites knob files mid-run from live SLO drift. Deterministic on
    # the sim clock, so ctl scenarios cache normally; the config
    # participates in the exec cache key like every other field.
    # Time-valued ctl fields are raw simulated microseconds (the
    # ActivityWindow convention -- already-dilated timelines).
    ctl: Optional["CtlConfig"] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("a scenario needs at least one app")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ValueError("warmup must be inside the run duration")
        names = [spec.name for spec in self.apps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate app names in scenario: {sorted(names)}")

    @property
    def duration_us(self) -> float:
        return self.duration_s * 1e6

    @property
    def warmup_us(self) -> float:
        return self.warmup_s * 1e6

    def device_ids(self) -> list[str]:
        return [device_id_for_index(i) for i in range(self.num_devices)]
