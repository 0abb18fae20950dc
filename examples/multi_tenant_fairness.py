#!/usr/bin/env python3
"""Multi-tenant weighted sharing: gold/silver/bronze service tiers.

A cloud operator sells three storage tiers with 4:2:1 weights. Each tier
runs four throughput-bound tenants in its own cgroup. We compare the two
knobs the paper found capable of weighted fairness -- io.cost+io.weight
and io.max with the naive weight->limit translation -- and show why the
paper calls io.max static: when the gold tier goes idle, io.max strands
its share while io.cost redistributes it (O8 vs work-conserving weights).

Run:  python examples/multi_tenant_fairness.py
"""

import dataclasses

from repro import GIB, IoCostKnob, IoMaxKnob, Scenario, run_scenario
from repro.core.knob_catalog import iomax_limit_for_share
from repro.core.scenarios import FairnessGroupSpec, fairness_specs
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.spec import ActivityWindow

DEVICE_SCALE = 8.0
TIERS = [
    FairnessGroupSpec(path="/tiers/gold", weight=400),
    FairnessGroupSpec(path="/tiers/silver", weight=200),
    FairnessGroupSpec(path="/tiers/bronze", weight=100),
]


def tier_knobs():
    ssd = samsung_980pro_like().scaled(DEVICE_SCALE)
    total = sum(tier.weight for tier in TIERS)
    return {
        "io.cost": IoCostKnob(weights={t.path: t.weight for t in TIERS}),
        "io.max": IoMaxKnob(
            limits={
                t.path: {"rbps": iomax_limit_for_share(t.weight / total, ssd)}
                for t in TIERS
            }
        ),
    }


def run_case(knob_name, knob, gold_stops_at_s=None):
    specs = fairness_specs(TIERS, apps_per_group=4, queue_depth=64)
    if gold_stops_at_s is not None:
        specs = [
            dataclasses.replace(
                spec, windows=(ActivityWindow(0.0, gold_stops_at_s * 1e6),)
            )
            if spec.cgroup_path == "/tiers/gold"
            else spec
            for spec in specs
        ]
    scenario = Scenario(
        name=f"tiers-{knob_name}",
        knob=knob,
        apps=specs,
        duration_s=1.0,
        warmup_s=0.2,
        device_scale=DEVICE_SCALE,
    )
    return run_scenario(scenario)


def equivalent_gib_s(result, t_start_us, t_end_us):
    """Aggregate full-speed-equivalent bandwidth over a sub-window."""
    total_bytes = result.total_bytes(t_start_us, t_end_us)
    seconds = (t_end_us - t_start_us) / 1e6
    return total_bytes / seconds / GIB * DEVICE_SCALE


def main() -> None:
    weights = {t.path: float(t.weight) for t in TIERS}

    print("=== all tiers active ===")
    for name, knob in tier_knobs().items():
        result = run_case(name, knob)
        shares = "  ".join(
            f"{path.rsplit('/', 1)[-1]}={stats.bandwidth_mib_s * DEVICE_SCALE:6.0f}MiB/s"
            for path, stats in sorted(result.cgroup_stats().items())
        )
        print(
            f"{name:<8s} {shares}  J={result.fairness(weights):.3f} "
            f"total={result.equivalent_bandwidth_gib_s:.2f}GiB/s"
        )

    print("\n=== gold tier stops at t=0.5s (work-conservation test) ===")
    for name, knob in tier_knobs().items():
        result = run_case(name, knob, gold_stops_at_s=0.5)
        after = equivalent_gib_s(result, 0.6e6, 1.0e6)
        print(f"{name:<8s} total bandwidth after gold left = {after:.2f} GiB/s")
    print(
        "\nio.max keeps silver+bronze at their static caps (gold's share"
        "\nis stranded); io.cost's weight sharing redistributes it."
    )


if __name__ == "__main__":
    main()
