"""Deterministic Scenario -> fixed-width numeric feature vectors.

The surrogate model never sees a :class:`~repro.core.config.Scenario`
object directly -- it sees one row per ``(scenario, cgroup)`` pair,
produced here. The encoding is:

* **total**: every valid Scenario featurizes without raising, and every
  cell is a finite float (property-pinned in
  ``tests/property/test_surrogate_properties.py``);
* **fixed-width**: :func:`feature_names` is a frozen tuple; rows from
  different scenarios always align column-for-column;
* **permutation-stable**: per-group cells are sums / means / extrema
  over apps, so reordering ``scenario.apps`` (or the knob's settings
  dicts) never changes a vector;
* **device-normalized**: dimensionful knob settings are expressed in
  *saturation units* derived from
  :func:`~repro.ssd.model.describe_model_dict` -- an io.max cap becomes
  a fraction of the 4 KiB random saturation point, a latency target a
  multiple of the device's fixed read cost -- so one model generalizes
  across device presets and ``device_scale`` effort levels.

Targets (:func:`targets_from_stats`) are full-device-speed values
converted by :func:`repro.tune.slo.full_speed_delivery`, the convention
the SLO scorer and the fleet matrices share. A starved group's p99 (no
latency sample) trains at :data:`TARGET_P99_CAP_US`, not at the SLO
terms' ``inf`` or the fleet's ``STARVED_P99_US``.
"""

from __future__ import annotations

import math

from repro.core.config import (
    BfqKnob,
    DynamicIoMaxKnob,
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    MqDeadlineKnob,
    Scenario,
)
from repro.iorequest import Pattern
from repro.ssd.model import describe_model_dict
from repro.tune.slo import full_speed_delivery

#: Version of the feature encoding. Bump on any change to
#: :func:`feature_names` or the cell semantics; saved models record it
#: and refuse to score rows from a different encoding.
FEATURE_SCHEMA_VERSION = 1

#: The targets a surrogate predicts for one cgroup, in full-device-speed
#: units (microseconds, MiB/s, fraction of device saturation).
TARGET_NAMES = ("p99_us", "bandwidth_mib_s", "util")

#: Training-target ceiling for p99. Starved groups train (and predict)
#: at this cap rather than the fleet's 1e9 sentinel: in log space the
#: sentinel sits ~5 decades above any real latency, and a handful of
#: starved rows would dominate every fit and error metric. The cap
#: still ranks above every achievable p99, so "predicted starved" stays
#: the worst outcome a candidate can have.
TARGET_P99_CAP_US = float(10**6)

#: Knob identity classes, in one-hot order.
KNOB_KINDS = (
    "none",
    "mq-deadline",
    "bfq",
    "io.max",
    "io.max-managed",
    "io.latency",
    "io.cost",
)

#: Fault classes, in one-hot order ("none" for healthy scenarios,
#: "other" for plans whose label matches no registered class).
FAULT_KINDS = (
    "none",
    "latency-spike",
    "gc-storm",
    "slowdown",
    "transient-error",
    "timeout-storm",
    "other",
)

#: io.prio.class ordinal used for the MQ-Deadline class features.
_MQ_CLASS_ORDINAL = {"realtime": 1.0, "best-effort": 0.0, "idle": -1.0}

#: Hard cap applied to every cell: keeps ratios of near-zero references
#: finite and the design matrix well-conditioned.
_CELL_CAP = 1e6

_GLOBAL_NAMES = (
    "n_groups",
    "n_apps",
    "duration_s",
    "warmup_frac",
    "cores",
    "num_devices",
    "log2_device_scale",
    "total_qd",
    "total_arrival_frac",
    "total_rate_limit_frac",
    "mean_log2_size",
    "max_log2_size",
    "write_frac",
    "seq_frac",
    "buffered_frac",
    "active_frac",
    "has_ctl",
)

_KNOB_SETTING_NAMES = (
    "iomax_bps_frac_min",
    "iomax_iops_frac_min",
    "iolat_target_norm_min",
    "weight_log_ratio",
    "iocost_vrate_frac",
    "iocost_rlat_norm",
    "mq_rt_frac",
    "mq_idle_frac",
)

_GROUP_NAMES = (
    "g_n_apps",
    "g_qd_sum",
    "g_qd_share",
    "g_arrival_frac",
    "g_rate_limit_frac",
    "g_mean_log2_size",
    "g_max_log2_size",
    "g_write_frac",
    "g_seq_frac",
    "g_active_frac",
    "g_is_lc",
    "g_iomax_bps_frac",
    "g_iomax_iops_frac",
    "g_iolat_target_norm",
    "g_weight_log_rel",
    "g_mq_class",
    "o_qd_sum",
    "o_arrival_frac",
    "o_write_frac",
    "o_max_log2_size",
)


def feature_names() -> tuple[str, ...]:
    """The frozen, ordered column names of one feature row."""
    return (
        _GLOBAL_NAMES
        + tuple(f"knob_is_{kind}" for kind in KNOB_KINDS)
        + _KNOB_SETTING_NAMES
        + tuple(f"fault_is_{kind}" for kind in FAULT_KINDS)
        + _GROUP_NAMES
    )


#: The cells every row of one scenario shares (all but the group block).
_SHARED_NAMES = feature_names()[: -len(_GROUP_NAMES)]

#: A group's knob-coupling cells when the knob does not name the group.
_GROUP_KNOB_DEFAULTS = {
    "g_iomax_bps_frac": 1.0,
    "g_iomax_iops_frac": 1.0,
    "g_iolat_target_norm": 0.0,
    "g_weight_log_rel": 0.0,
    "g_mq_class": 0.0,
}


def _finite(value: float, default: float = 0.0) -> float:
    """Coerce one cell to a finite, capped float."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return default
    if not math.isfinite(value):
        return default
    return max(-_CELL_CAP, min(_CELL_CAP, value))


def _log2_size(size: int) -> float:
    """log2 of a request size in bytes (sizes are validated positive)."""
    return math.log2(max(1, size))


def _mean(values: list[float]) -> float:
    """Arithmetic mean, 0.0 for an empty list."""
    return sum(values) / len(values) if values else 0.0


def _mean_arrival_iops(spec) -> float:
    """A job's mean open-loop arrival rate (0.0 for closed-loop jobs)."""
    if spec.arrival_rate_iops is not None:
        return spec.arrival_rate_iops
    if spec.arrival_phases:
        weighted = sum(
            phase.rate_iops * (phase.stop_us - phase.start_us)
            for phase in spec.arrival_phases
            if math.isfinite(phase.stop_us)
        )
        span = sum(
            phase.stop_us - phase.start_us
            for phase in spec.arrival_phases
            if math.isfinite(phase.stop_us)
        )
        if span > 0:
            return weighted / span
        return _mean([phase.rate_iops for phase in spec.arrival_phases])
    return 0.0


def _active_fraction(spec, duration_us: float) -> float:
    """Fraction of the run during which the job issues I/O."""
    if duration_us <= 0:
        return 1.0
    covered = 0.0
    for window in spec.windows:
        start = min(window.start_us, duration_us)
        stop = min(window.stop_us, duration_us)
        covered += max(0.0, stop - start)
    return max(0.0, min(1.0, covered / duration_us))


def scenario_cgroups(scenario: Scenario) -> list[str]:
    """The scenario's cgroup paths, sorted (the row key order)."""
    return sorted({spec.cgroup_path for spec in scenario.apps})


class _DeviceRefs:
    """Full-speed saturation references for normalizing one scenario."""

    def __init__(self, scenario: Scenario):
        doc = describe_model_dict(scenario.ssd_model)
        read = doc["cases"]["rand-read-4k"]
        write = doc["cases"]["rand-write-4k"]
        self.read_bps = max(1.0, read["bandwidth_bps"])
        self.write_bps = max(1.0, write["bandwidth_bps"])
        self.read_iops = max(1.0, read["iops"])
        self.read_fixed_us = max(1e-9, doc["read_fixed_us"])
        self.scale = max(1e-9, scenario.device_scale)


def _knob_kind(scenario: Scenario) -> str:
    """The scenario knob's identity class (one of :data:`KNOB_KINDS`)."""
    knob = scenario.knob
    if isinstance(knob, DynamicIoMaxKnob):
        return "io.max-managed"
    if isinstance(knob, IoMaxKnob):
        return "io.max"
    if isinstance(knob, MqDeadlineKnob):
        return "mq-deadline"
    if isinstance(knob, BfqKnob):
        return "bfq"
    if isinstance(knob, IoLatencyKnob):
        return "io.latency"
    if isinstance(knob, IoCostKnob):
        return "io.cost"
    return "none"


def _fault_kind(scenario: Scenario) -> str:
    """The fault plan's class (one of :data:`FAULT_KINDS`)."""
    if scenario.faults is None:
        return "none"
    label = scenario.faults.label
    return label if label in FAULT_KINDS else "other"


def _weight_stats(weights: dict[str, int]) -> tuple[float, dict[str, float]]:
    """Global log10(max/min) ratio plus per-group log10 relative weight."""
    if not weights:
        return 0.0, {}
    values = [max(1, int(w)) for w in weights.values()]
    ratio = math.log10(max(values) / min(values))
    geo_mean = math.exp(_mean([math.log(v) for v in values]))
    relative = {
        path: math.log10(max(1, int(weight)) / geo_mean)
        for path, weight in weights.items()
    }
    return ratio, relative


def _knob_setting_cells(
    scenario: Scenario, refs: _DeviceRefs
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Global knob-setting cells plus per-group knob coupling cells.

    All settings written by :mod:`repro.tune.space` builders are in
    *scaled-device* units (caps divided by ``device_scale``, latency
    targets multiplied by it); this undoes the dilation before
    normalizing against the full-speed saturation references.
    """
    cells = {
        "iomax_bps_frac_min": 1.0,
        "iomax_iops_frac_min": 1.0,
        "iolat_target_norm_min": 0.0,
        "weight_log_ratio": 0.0,
        "iocost_vrate_frac": 1.0,
        "iocost_rlat_norm": 0.0,
        "mq_rt_frac": 0.0,
        "mq_idle_frac": 0.0,
    }
    per_group: dict[str, dict[str, float]] = {}
    knob = scenario.knob

    if isinstance(knob, IoMaxKnob):
        bps_fracs, iops_fracs = [], []
        for path, limits in knob.limits.items():
            bps = [
                limits[key] * refs.scale / ref
                for key, ref in (("rbps", refs.read_bps), ("wbps", refs.write_bps))
                if key in limits and math.isfinite(limits[key])
            ]
            iops = [
                limits[key] * refs.scale / refs.read_iops
                for key in ("riops", "wiops")
                if key in limits and math.isfinite(limits[key])
            ]
            group = per_group.setdefault(path, {})
            group["g_iomax_bps_frac"] = min(bps) if bps else 1.0
            group["g_iomax_iops_frac"] = min(iops) if iops else 1.0
            bps_fracs.extend(bps)
            iops_fracs.extend(iops)
        if bps_fracs:
            cells["iomax_bps_frac_min"] = min(bps_fracs)
        if iops_fracs:
            cells["iomax_iops_frac_min"] = min(iops_fracs)
    elif isinstance(knob, DynamicIoMaxKnob):
        ratio, relative = _weight_stats(knob.weights)
        cells["weight_log_ratio"] = ratio
        for path, rel in relative.items():
            per_group.setdefault(path, {})["g_weight_log_rel"] = rel
    elif isinstance(knob, BfqKnob):
        ratio, relative = _weight_stats(knob.weights)
        cells["weight_log_ratio"] = ratio
        for path, rel in relative.items():
            per_group.setdefault(path, {})["g_weight_log_rel"] = rel
    elif isinstance(knob, IoLatencyKnob):
        norms = []
        for path, target in knob.targets_us.items():
            norm = (target / refs.scale) / refs.read_fixed_us
            per_group.setdefault(path, {})["g_iolat_target_norm"] = norm
            norms.append(norm)
        if norms:
            cells["iolat_target_norm_min"] = min(norms)
    elif isinstance(knob, IoCostKnob):
        ratio, relative = _weight_stats(knob.weights)
        cells["weight_log_ratio"] = ratio
        for path, rel in relative.items():
            per_group.setdefault(path, {})["g_weight_log_rel"] = rel
        qos = knob.qos
        if qos.enable:
            cells["iocost_vrate_frac"] = (
                (qos.vrate_min_pct + qos.vrate_max_pct) / 2.0 / 100.0
            )
            if qos.rlat_us > 0:
                cells["iocost_rlat_norm"] = (
                    (qos.rlat_us / refs.scale) / refs.read_fixed_us
                )
    elif isinstance(knob, MqDeadlineKnob):
        classes = list(knob.classes.values())
        if classes:
            cells["mq_rt_frac"] = classes.count("realtime") / len(classes)
            cells["mq_idle_frac"] = classes.count("idle") / len(classes)
        for path, class_name in knob.classes.items():
            per_group.setdefault(path, {})["g_mq_class"] = _MQ_CLASS_ORDINAL.get(
                class_name, 0.0
            )

    return cells, per_group


def featurize_rows(scenario: Scenario, cgroups) -> list[list[float]]:
    """The feature rows of ``cgroups`` in one scenario, in one pass.

    The device references and the global, knob and fault cells are the
    same in every row of a scenario, so they are computed once; each
    cgroup then adds only its own block (its competitors are aggregated
    into the ``o_*`` cells). Total over valid scenarios; every cell
    finite; stable under any reordering of ``scenario.apps``.
    """
    refs = _DeviceRefs(scenario)
    specs = list(scenario.apps)
    duration_us = scenario.duration_us

    def qd(spec) -> float:
        """Closed-loop demand: queue depth (0 for open-loop jobs)."""
        if spec.arrival_rate_iops is not None or spec.arrival_phases:
            return 0.0
        return float(spec.queue_depth)

    def arrival_frac(spec) -> float:
        """Open-loop demand as a fraction of full-speed read saturation."""
        return _mean_arrival_iops(spec) * refs.scale / refs.read_iops

    def rate_limit_frac(spec) -> float:
        """Self-imposed bandwidth cap as a fraction of read saturation."""
        if spec.rate_limit_bps is None or not math.isfinite(spec.rate_limit_bps):
            return 1.0
        return min(1.0, spec.rate_limit_bps * refs.scale / refs.read_bps)

    total_qd = sum(qd(spec) for spec in specs)

    cells: dict[str, float] = {
        "n_groups": float(len({spec.cgroup_path for spec in specs})),
        "n_apps": float(len(specs)),
        "duration_s": scenario.duration_s,
        "warmup_frac": scenario.warmup_s / scenario.duration_s,
        "cores": float(scenario.cores),
        "num_devices": float(scenario.num_devices),
        "log2_device_scale": math.log2(max(1e-9, scenario.device_scale)),
        "total_qd": total_qd,
        "total_arrival_frac": sum(arrival_frac(spec) for spec in specs),
        "total_rate_limit_frac": sum(rate_limit_frac(spec) for spec in specs),
        "mean_log2_size": _mean([_log2_size(spec.size) for spec in specs]),
        "max_log2_size": max(_log2_size(spec.size) for spec in specs),
        "write_frac": _mean([1.0 - spec.read_fraction for spec in specs]),
        "seq_frac": _mean(
            [1.0 if spec.pattern is Pattern.SEQUENTIAL else 0.0 for spec in specs]
        ),
        "buffered_frac": _mean([0.0 if spec.direct else 1.0 for spec in specs]),
        "active_frac": _mean(
            [_active_fraction(spec, duration_us) for spec in specs]
        ),
        "has_ctl": 1.0 if scenario.ctl is not None else 0.0,
    }

    knob_kind = _knob_kind(scenario)
    for kind in KNOB_KINDS:
        cells[f"knob_is_{kind}"] = 1.0 if kind == knob_kind else 0.0

    setting_cells, per_group_settings = _knob_setting_cells(scenario, refs)
    cells.update(setting_cells)

    fault_kind = _fault_kind(scenario)
    for kind in FAULT_KINDS:
        cells[f"fault_is_{kind}"] = 1.0 if kind == fault_kind else 0.0

    shared = [_finite(cells[name]) for name in _SHARED_NAMES]
    rows = []
    for cgroup in cgroups:
        group_specs = [spec for spec in specs if spec.cgroup_path == cgroup]
        other_specs = [spec for spec in specs if spec.cgroup_path != cgroup]
        group_qd = sum(qd(spec) for spec in group_specs)
        group = {
            "g_n_apps": float(len(group_specs)),
            "g_qd_sum": group_qd,
            "g_qd_share": group_qd / total_qd if total_qd > 0 else 0.0,
            "g_arrival_frac": sum(arrival_frac(spec) for spec in group_specs),
            "g_rate_limit_frac": sum(rate_limit_frac(spec) for spec in group_specs),
            "g_mean_log2_size": _mean([_log2_size(s.size) for s in group_specs]),
            "g_max_log2_size": max(
                [_log2_size(s.size) for s in group_specs], default=0.0
            ),
            "g_write_frac": _mean([1.0 - s.read_fraction for s in group_specs]),
            "g_seq_frac": _mean(
                [1.0 if s.pattern is Pattern.SEQUENTIAL else 0.0 for s in group_specs]
            ),
            "g_active_frac": _mean(
                [_active_fraction(s, duration_us) for s in group_specs]
            ),
            "g_is_lc": 1.0
            if group_specs
            and all(
                s.arrival_rate_iops is None
                and not s.arrival_phases
                and s.queue_depth == 1
                for s in group_specs
            )
            else 0.0,
            "o_qd_sum": total_qd - group_qd,
            "o_arrival_frac": sum(arrival_frac(spec) for spec in other_specs),
            "o_write_frac": _mean([1.0 - s.read_fraction for s in other_specs]),
            "o_max_log2_size": max(
                [_log2_size(s.size) for s in other_specs], default=0.0
            ),
            **_GROUP_KNOB_DEFAULTS,
        }
        group.update(per_group_settings.get(cgroup, {}))
        rows.append(shared + [_finite(group[name]) for name in _GROUP_NAMES])
    return rows


def featurize(scenario: Scenario, cgroup: str) -> list[float]:
    """The feature row for one ``(scenario, cgroup)`` pair.

    ``cgroup`` selects which group the per-group block describes; see
    :func:`featurize_rows`, which featurizes several groups of one
    scenario in one pass.
    """
    return featurize_rows(scenario, (cgroup,))[0]


def featurize_scenario(scenario: Scenario) -> dict[str, list[float]]:
    """Feature rows for every cgroup in the scenario, sorted by path."""
    cgroups = scenario_cgroups(scenario)
    return dict(zip(cgroups, featurize_rows(scenario, cgroups)))


def target_p99_us(p99_us: float | None) -> float:
    """A full-speed p99 as a training target.

    Starved (None, or an SLO term's ``inf``) reads as
    :data:`TARGET_P99_CAP_US`, which also clamps any measured p99.
    """
    return TARGET_P99_CAP_US if p99_us is None else min(TARGET_P99_CAP_US, p99_us)


def targets_from_stats(
    stats, scale: float, reference_mib_s: float | None = None
) -> tuple[float, float, float]:
    """One group's ``(p99_us, bandwidth_mib_s, util)`` training targets.

    ``stats`` is the group's entry of ``summary.cgroup_stats()`` (None
    when the group completed nothing) and ``scale`` the summary's
    ``device_scale``, converted by
    :func:`~repro.tune.slo.full_speed_delivery`; the p99 goes through
    :func:`target_p99_us`, and utilization is the full-speed bandwidth
    over ``reference_mib_s`` (0.0 when no reference is given). Callers
    featurizing every group of one summary compute ``cgroup_stats()``
    once and pass each group's entry here.
    """
    p99, bandwidth = full_speed_delivery(stats, scale)
    util = 0.0
    if reference_mib_s is not None and reference_mib_s > 0:
        util = bandwidth / reference_mib_s
    return target_p99_us(p99), bandwidth, util
