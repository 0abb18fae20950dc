"""Test-local oracle: the seed's per-cgroup featurization.

:func:`repro.surrogate.features.featurize_rows` computes a scenario's
shared cells once and then each cgroup's block. The seed computed the
whole row again for every cgroup; that code is kept here, as it was,
so the one-pass rows can be held to it bit for bit on the study minis'
scenarios, the property suite's and the prefilter differential's.
"""

from __future__ import annotations

import math

from repro.core.config import Scenario
from repro.iorequest import Pattern
from repro.surrogate.features import (
    FAULT_KINDS,
    KNOB_KINDS,
    _active_fraction,
    _DeviceRefs,
    _fault_kind,
    _finite,
    _knob_kind,
    _knob_setting_cells,
    _log2_size,
    _mean,
    _mean_arrival_iops,
    feature_names,
    scenario_cgroups,
)


def oracle_featurize(scenario: Scenario, cgroup: str) -> list[float]:
    """The seed's feature row for one ``(scenario, cgroup)`` pair.

    Total over valid scenarios; every cell finite; stable under any
    reordering of ``scenario.apps``. ``cgroup`` selects which group the
    per-group block describes (its competitors are aggregated into the
    ``o_*`` cells).
    """
    refs = _DeviceRefs(scenario)
    specs = list(scenario.apps)
    group_specs = [spec for spec in specs if spec.cgroup_path == cgroup]
    other_specs = [spec for spec in specs if spec.cgroup_path != cgroup]
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
    group_qd = sum(qd(spec) for spec in group_specs)

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

    group_defaults = {
        "g_iomax_bps_frac": 1.0,
        "g_iomax_iops_frac": 1.0,
        "g_iolat_target_norm": 0.0,
        "g_weight_log_rel": 0.0,
        "g_mq_class": 0.0,
    }
    group_knob = dict(group_defaults)
    group_knob.update(per_group_settings.get(cgroup, {}))

    cells.update(
        {
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
        }
    )
    cells.update(group_knob)

    return [_finite(cells[name]) for name in feature_names()]


def oracle_rows(scenario: Scenario) -> dict[str, list[float]]:
    """Every cgroup's seed row, featurized one cgroup at a time."""
    return {
        cgroup: oracle_featurize(scenario, cgroup)
        for cgroup in scenario_cgroups(scenario)
    }
