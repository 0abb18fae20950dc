"""Mini D1-D6 scenarios for the engine differential suite.

One representative scenario per desideratum, each cheap enough that the
whole suite runs every mini on the slot wheel and on the test-local heap
oracle (``tests/differential/oracle.py``) in seconds. The shapes
deliberately cover every scheduler/throttle path (io.cost, BFQ,
io.latency, io.max, MQ-DL + faults, tuned-QoS io.cost), both workload
drive modes (closed-loop refill and open-loop Poisson arrivals,
including the macro-tick batching mode), and the profiled event loop.

Module-level so the 2-worker spawn test can pickle builder references.
"""

from __future__ import annotations

from repro.core.config import (
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    MqDeadlineKnob,
    NoneKnob,
    Scenario,
)
from repro.core.knob_catalog import (
    fairness_knobs,
    iomax_limit_for_share,
    overhead_knobs,
)
from repro.core.scenarios import (
    BE_GROUP,
    PRIORITY_GROUP,
    batch_scaling_specs,
    burst_specs,
    fairness_specs,
    robustness_specs,
    tradeoff_specs,
    uniform_fairness_groups,
)
from repro.faults.presets import gc_storm_plan
from repro.prof.config import ProfConfig
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.spec import JobSpec

#: Differential minis run heavily time-dilated: they only need coverage,
#: not statistics, so each runs ~10-40k events.
SCALE = 16.0
_SEED = 7


def d1_mini() -> Scenario:
    """D1 overhead shape: saturating batch apps, io.cost not controlling.

    The self-profiler is on, so this mini drives ``run_until_profiled``
    on the wheel and on the oracle.
    """
    ssd = samsung_980pro_like()
    apps = batch_scaling_specs(2, queue_depth=32)
    knob = overhead_knobs(ssd.scaled(SCALE), [spec.cgroup_path for spec in apps])[
        "io.cost"
    ]
    return Scenario(
        name="diff-d1-overhead",
        knob=knob,
        apps=apps,
        ssd_model=ssd,
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
        prof=ProfConfig(),
    )


def d2_mini() -> Scenario:
    """D2 fairness shape: two uniform cgroups under BFQ."""
    ssd = samsung_980pro_like()
    groups = uniform_fairness_groups(2)
    knob = fairness_knobs(
        groups, ssd.scaled(SCALE), weighted=False, latency_scale=SCALE
    )["bfq"]
    return Scenario(
        name="diff-d2-fairness",
        knob=knob,
        apps=fairness_specs(groups, apps_per_group=2, queue_depth=32),
        ssd_model=ssd,
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


def d3_mini() -> Scenario:
    """D3 trade-off shape: LC app protected by io.latency targets."""
    return Scenario(
        name="diff-d3-tradeoff",
        knob=IoLatencyKnob(targets_us={PRIORITY_GROUP: 200.0 * SCALE}),
        apps=tradeoff_specs("lc", n_be_apps=2, be_queue_depth=32),
        ssd_model=samsung_980pro_like(),
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


def d4_mini() -> Scenario:
    """D4 burst shape: mid-run LC burst plus an open-loop Poisson app.

    The open-loop app exercises the per-arrival callback chain
    (``App._arrive``), which only this desideratum uses.
    """
    ssd = samsung_980pro_like()
    apps = burst_specs(
        "lc", burst_start_us=50_000.0 * SCALE, be_queue_depth=32
    ) + [
        JobSpec(
            name="openloop",
            cgroup_path=BE_GROUP,
            arrival_rate_iops=2_000.0 / SCALE,
        )
    ]
    limit = iomax_limit_for_share(0.5, ssd.scaled(SCALE))
    return Scenario(
        name="diff-d4-burst",
        knob=IoMaxKnob(limits={BE_GROUP: {"rbps": limit}}),
        apps=apps,
        ssd_model=ssd,
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


def d4_macro_mini() -> Scenario:
    """D4 burst shape with macro-tick arrival batching enabled.

    Same scenario as :func:`d4_mini` but the open-loop app batches its
    arrivals (``macro_tick_us``): the differential suite proves the
    macro-tick path is itself engine-independent.
    """
    base = d4_mini()
    apps = [
        spec
        if spec.arrival_rate_iops is None
        else JobSpec(
            name=spec.name,
            cgroup_path=spec.cgroup_path,
            arrival_rate_iops=spec.arrival_rate_iops,
            macro_tick_us=500.0 * SCALE,
        )
        for spec in base.apps
    ]
    return Scenario(
        name="diff-d4-macro",
        knob=base.knob,
        apps=apps,
        ssd_model=base.ssd_model,
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


def d5_mini() -> Scenario:
    """D5 robustness shape: LC vs BE under a GC storm, MQ-DL classes."""
    return Scenario(
        name="diff-d5-faulted",
        knob=MqDeadlineKnob(
            classes={PRIORITY_GROUP: "realtime", BE_GROUP: "idle"}
        ),
        apps=robustness_specs(be_queue_depth=16, n_be_apps=2),
        ssd_model=samsung_980pro_like(),
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
        faults=gc_storm_plan(),
    )


def d6_mini() -> Scenario:
    """D6 autotune shape: a tuned-QoS io.cost knob on the D5 workload."""
    ssd = samsung_980pro_like()
    groups = uniform_fairness_groups(2)
    tuned = fairness_knobs(
        groups, ssd.scaled(SCALE), weighted=True, latency_scale=SCALE
    )["io.cost"]
    assert isinstance(tuned, IoCostKnob)
    return Scenario(
        name="diff-d6-autotuned",
        knob=tuned,
        apps=fairness_specs(groups, apps_per_group=1, queue_depth=32),
        ssd_model=ssd,
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


def d_none_mini() -> Scenario:
    """Control: no knob at all (the paper's None baseline)."""
    return Scenario(
        name="diff-none-baseline",
        knob=NoneKnob(),
        apps=batch_scaling_specs(1, queue_depth=16),
        ssd_model=samsung_980pro_like(),
        duration_s=0.15,
        warmup_s=0.05,
        seed=_SEED,
        device_scale=SCALE,
    )


#: Suite order: name -> zero-arg scenario builder.
MINI_BUILDERS = {
    "d1": d1_mini,
    "d2": d2_mini,
    "d3": d3_mini,
    "d4": d4_mini,
    "d4-macro": d4_macro_mini,
    "d5": d5_mini,
    "d6": d6_mini,
    "none": d_none_mini,
}
