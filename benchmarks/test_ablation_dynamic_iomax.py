"""Ablation: static vs managed io.max in a dynamic environment (O8, §VII).

The paper's Table I gives io.max "--" cells because a practitioner must
"dynamically translate weights to maximums and adjust values as new
groups start or stop" (citing PAIO [60] / Tango [70]). This ablation
runs that practitioner: two weighted tenants on a timeline where the
heavy one stops halfway, comparing static io.max limits against the
:class:`~repro.iocontrol.dynamic_iomax.DynamicIoMaxManager` control loop
on three axes -- the survivor's reclaimed bandwidth, the weighted
fairness while both run, and the strict work-conservation violation
fraction (§II-B's D3 metric).
"""

import dataclasses

from conftest import run_once

from repro.core.config import DynamicIoMaxKnob, IoMaxKnob, NoneKnob, Scenario
from repro.core.knob_catalog import iomax_limit_for_share
from repro.core.report import render_table
from repro.core.runner import run_scenario
from repro.metrics.collector import cgroup_stats
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.apps import batch_app
from repro.workloads.spec import ActivityWindow

DEVICE_SCALE = 8.0
WEIGHTS = {"/t/heavy": 300, "/t/light": 100}
HEAVY_STOPS_AT_US = 0.5e6
DURATION_S = 1.2


def _apps():
    heavy = dataclasses.replace(
        batch_app("heavy", "/t/heavy", queue_depth=64),
        windows=(ActivityWindow(0.0, HEAVY_STOPS_AT_US),),
    )
    return [heavy, batch_app("light", "/t/light", queue_depth=64)]


def _knobs():
    ssd = samsung_980pro_like().scaled(DEVICE_SCALE)
    total = sum(WEIGHTS.values())
    return {
        "none": NoneKnob(),
        "io.max static": IoMaxKnob(
            limits={
                path: {"rbps": iomax_limit_for_share(weight / total, ssd)}
                for path, weight in WEIGHTS.items()
            }
        ),
        "io.max managed": DynamicIoMaxKnob(
            weights=WEIGHTS, adjust_period_us=100_000.0
        ),
    }


def test_dynamic_iomax(benchmark, figure_output):
    def experiment():
        rows = []
        for name, knob in _knobs().items():
            result = run_scenario(
                Scenario(
                    name=f"ablation-dyn-iomax-{name}",
                    knob=knob,
                    apps=_apps(),
                    duration_s=DURATION_S,
                    warmup_s=0.1,
                    device_scale=DEVICE_SCALE,
                )
            )
            both_running = cgroup_stats(result.apps.values(), 0.15e6, HEAVY_STOPS_AT_US)
            bandwidths = [
                both_running[path].bytes / ((HEAVY_STOPS_AT_US - 0.15e6) / 1e6)
                for path in sorted(both_running)
            ]
            from repro.metrics.fairness import weighted_jain_index

            fairness = weighted_jain_index(
                bandwidths, [WEIGHTS[path] for path in sorted(both_running)]
            )
            light_after = result.app_stats_window("light", 0.7e6, DURATION_S * 1e6)
            rows.append(
                [
                    name,
                    fairness,
                    light_after.bandwidth_mib_s * DEVICE_SCALE,
                    result.work_conservation_violation,
                ]
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = render_table(
        [
            "knob",
            "weighted Jain (both running)",
            "survivor MiB/s after heavy stops",
            "wc-violation",
        ],
        rows,
        title="Ablation -- static vs managed io.max on a start/stop timeline",
    )
    figure_output("ablation_dynamic_iomax", table)

    by_name = {row[0]: row for row in rows}
    # Static: fair while both run, strands bandwidth after.
    assert by_name["io.max static"][1] > 0.95
    assert by_name["io.max static"][2] < 0.5 * by_name["none"][2]
    # Managed: fair AND reclaims most of the device.
    assert by_name["io.max managed"][1] > 0.95
    assert by_name["io.max managed"][2] > 0.85 * by_name["none"][2]
    assert (
        by_name["io.max managed"][3] < by_name["io.max static"][3]
    )
