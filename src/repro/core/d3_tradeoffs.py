"""D3: prioritization / utilization trade-offs (§VI-B, Fig. 7).

One priority app (an LC-app for latency trade-offs, a QD=32 batch app
for bandwidth trade-offs) runs against four saturating BE-apps. For each
knob we sweep its configuration space exactly as the paper does:

* MQ-DL: all (priority, BE) io.prio.class permutations (Q6);
* BFQ:   io.bfq.weight of the priority group from 1 to 1000 (Q6);
* io.latency: the priority group's target from "achievable in
  isolation" up past the unprotected latency (Q7);
* io.max: the BE group's read/write cap from a small fraction to full
  saturation (Q8);
* io.cost: priority io.weight=10000 and a sweep of io.cost.qos ``min``
  (plus latency targets for the LC variant) (Q9).

Each configuration yields a :class:`~repro.core.pareto.TradeoffPoint`;
the Pareto front over them is the knob's Fig. 7 curve. BE-workload
variants (4 KiB rand/seq, 256 KiB, writes) exercise flash idiosyncrasies.
"""

from __future__ import annotations

import math

from repro.cgroups.knobs import IoCostQosParams
from repro.core.config import (
    BfqKnob,
    IoCostKnob,
    IoLatencyKnob,
    IoMaxKnob,
    KnobConfig,
    MqDeadlineKnob,
    NoneKnob,
    Scenario,
)
from repro.core.pareto import TradeoffPoint
from repro.core.scenarios import (
    BE_GROUP,
    PRIORITY_GROUP,
    scaled_priority_qd,
    tradeoff_specs,
)
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.exec.summary import ScenarioSummary
from repro.iorequest import KIB, OpType, Pattern
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like
from repro.tune.slo import full_speed_delivery

_PRIO_CLASSES = ("realtime", "best-effort", "idle")


def _config_scenario(
    knob: KnobConfig,
    label: str,
    priority_kind: str,
    be_variant: str,
    ssd: SsdModel,
    cores: int,
    duration_s: float,
    warmup_s: float,
    seed: int,
    device_scale: float,
    be_queue_depth: int,
) -> Scenario:
    specs = tradeoff_specs(
        priority_kind,
        be_variant=be_variant,
        be_queue_depth=be_queue_depth,
        priority_queue_depth=scaled_priority_qd(device_scale),
    )
    has_writes = any(spec.read_fraction < 1.0 for spec in specs)
    return Scenario(
        name=f"d3-{knob.profile_name}-{label}-{priority_kind}-{be_variant}",
        knob=knob,
        apps=specs,
        ssd_model=ssd,
        cores=cores,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        device_scale=device_scale,
        preconditioned=has_writes,
    )


def _config_point(
    summary: ScenarioSummary,
    knob: KnobConfig,
    label: str,
    priority_kind: str,
    be_variant: str,
    device_scale: float,
) -> TradeoffPoint:
    # Report full-device-speed equivalents (time dilation).
    p99, bandwidth = full_speed_delivery(summary.app_stats("prio"), device_scale)
    if priority_kind == "batch":
        metric = bandwidth
        maximize = True
    else:
        metric = p99 if p99 is not None else math.inf
        maximize = False
    return TradeoffPoint(
        knob=knob.profile_name,
        config_label=label,
        be_variant=be_variant,
        aggregate_gib_s=summary.equivalent_bandwidth_gib_s,
        priority_metric=metric,
        metric_maximize=maximize,
    )


def unprotected_baseline(
    priority_kind: str,
    be_variant: str = "rand-4k",
    ssd: SsdModel | None = None,
    cores: int = 10,
    duration_s: float = 0.5,
    warmup_s: float = 0.15,
    seed: int = 42,
    device_scale: float = 8.0,
    be_queue_depth: int = 256,
    executor: SweepExecutor | None = None,
) -> TradeoffPoint:
    """The no-knob corner: full utilization, no protection."""
    ssd = ssd or samsung_980pro_like()
    executor = resolve_executor(executor)
    knob = NoneKnob()
    scenario = _config_scenario(
        knob,
        "baseline",
        priority_kind,
        be_variant,
        ssd,
        cores,
        duration_s,
        warmup_s,
        seed,
        device_scale,
        be_queue_depth,
    )
    return _config_point(
        executor.run_one(scenario),
        knob,
        "baseline",
        priority_kind,
        be_variant,
        device_scale,
    )


def sweep_knob(
    knob_name: str,
    priority_kind: str,
    be_variant: str = "rand-4k",
    ssd: SsdModel | None = None,
    cores: int = 10,
    duration_s: float = 0.5,
    warmup_s: float = 0.15,
    seed: int = 42,
    device_scale: float = 8.0,
    sweep_points: int = 7,
    be_queue_depth: int = 256,
    baseline_p99_us: float | None = None,
    executor: SweepExecutor | None = None,
) -> list[TradeoffPoint]:
    """Sweep one knob's configuration space (the paper's Q6-Q9 recipes).

    io.latency and io.cost LC sweeps need the unprotected P99 to pick a
    meaningful target range; pass ``baseline_p99_us`` (otherwise it is
    measured first with a none-knob run).
    """
    ssd = ssd or samsung_980pro_like()
    executor = resolve_executor(executor)
    scaled = ssd.scaled(device_scale)

    configs: list[tuple[KnobConfig, str]] = []
    if knob_name == "mq-deadline":
        for prio_cls in _PRIO_CLASSES:
            for be_cls in _PRIO_CLASSES:
                knob = MqDeadlineKnob(
                    classes={PRIORITY_GROUP: prio_cls, BE_GROUP: be_cls}
                )
                configs.append((knob, f"prio={prio_cls},be={be_cls}"))
    elif knob_name == "bfq":
        weights = _spaced(1, 1000, sweep_points)
        for weight in weights:
            knob = BfqKnob(weights={PRIORITY_GROUP: int(weight), BE_GROUP: 100})
            configs.append((knob, f"w={int(weight)}"))
    elif knob_name == "io.max":
        saturation = scaled.saturation_bandwidth_bps(
            OpType.READ, Pattern.RANDOM, 4 * KIB
        )
        for fraction in _spaced(0.05, 1.0, sweep_points):
            cap = saturation * fraction
            knob = IoMaxKnob(limits={BE_GROUP: {"rbps": cap, "wbps": cap}})
            configs.append((knob, f"be_cap={fraction:.2f}sat"))
    elif knob_name == "io.latency":
        lo, hi = _latency_target_range(priority_kind, ssd, baseline_p99_us)
        for target in _log_spaced(lo, hi, sweep_points):
            # Knob values live in the time-dilated world of the scaled
            # device; labels stay in full-speed-equivalent microseconds.
            knob = IoLatencyKnob(
                targets_us={PRIORITY_GROUP: target * device_scale}
            )
            configs.append((knob, f"target={target:.0f}us"))
    elif knob_name == "io.cost":
        lo, hi = _latency_target_range(priority_kind, ssd, baseline_p99_us)
        # Pin vrate with min=max (the "fixed scaling window" recipe): the
        # utilization dial, while io.weight=10000 protects the priority
        # app out of whatever budget remains (Q9).
        for vrate in _spaced(20.0, 100.0, sweep_points):
            rlat = 0.0 if priority_kind == "batch" else (lo + hi) / 2 * device_scale
            knob = IoCostKnob(
                weights={PRIORITY_GROUP: 10000, BE_GROUP: 100},
                qos=IoCostQosParams(
                    enable=True,
                    ctrl="user",
                    rpct=99.0,
                    rlat_us=rlat,
                    vrate_min_pct=vrate,
                    vrate_max_pct=vrate,
                ),
            )
            configs.append((knob, f"vrate={vrate:.0f}%"))
        if priority_kind == "lc":
            for rlat in _log_spaced(lo, hi, sweep_points):
                knob = IoCostKnob(
                    weights={PRIORITY_GROUP: 10000, BE_GROUP: 100},
                    qos=IoCostQosParams(
                        enable=True,
                        ctrl="user",
                        rpct=99.0,
                        rlat_us=rlat * device_scale,
                        vrate_min_pct=25.0,
                        vrate_max_pct=100.0,
                    ),
                )
                configs.append((knob, f"rlat={rlat:.0f}us"))
    else:
        raise ValueError(f"no D3 sweep defined for knob {knob_name!r}")

    scenarios = [
        _config_scenario(
            knob,
            label,
            priority_kind,
            be_variant,
            ssd,
            cores,
            duration_s,
            warmup_s,
            seed,
            device_scale,
            be_queue_depth,
        )
        for knob, label in configs
    ]
    return [
        _config_point(summary, knob, label, priority_kind, be_variant, device_scale)
        for (knob, label), summary in zip(configs, executor.run_strict(scenarios))
    ]


def _latency_target_range(
    priority_kind: str, ssd: SsdModel, baseline_p99_us: float | None
) -> tuple[float, float]:
    """Target sweep endpoints in full-speed-equivalent microseconds.

    From "achievable in isolation" up past the unprotected P99, matching
    the paper's 75 us .. 1.2 ms recipe but self-calibrating to the
    device and background load. The floor sits marginally *below* the
    isolated P90 so the tightest settings keep the target persistently
    violated -- the regime where io.latency pins the background to QD=1
    and the trade-off's low-utilization end exists at all.
    """
    isolated = ssd.fixed_cost_us(OpType.READ, Pattern.RANDOM) * 0.9
    if baseline_p99_us is not None and baseline_p99_us > isolated:
        return isolated, baseline_p99_us * 1.2
    # Fall back to the paper's static range.
    return isolated, 1200.0


def _spaced(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        return [hi]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for a log sweep")
    if n < 2:
        return [hi]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]
