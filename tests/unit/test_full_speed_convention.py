"""One full-speed delivery convention, checked across all its consumers.

Every study runs time-dilated (``device_scale``) and judges a tenant at
full device speed. :mod:`repro.tune.slo` owns the conversion
(:func:`~repro.tune.slo.full_speed_delivery`) and the capped scoring
(:func:`~repro.tune.slo.score_deliveries`); the SLO terms, the fleet's
matrices, the surrogate's targets and its prefilter all go through them
and differ only in what a starved group reads as: ``inf`` in SLO terms,
``STARVED_P99_US`` in fleet matrices, ``TARGET_P99_CAP_US`` in surrogate
targets. Each case below feeds the same dilated group stats, at
``device_scale`` 8, to every consumer.
"""

import math

import numpy as np
import pytest

from repro.core.config import NoneKnob, Scenario
from repro.fleet.interference import (
    STARVED_P99_US,
    TenantMeasure,
    measure_from_stats,
    pair_effect,
    slo_violation,
)
from repro.fleet.spec import TenantSpec
from repro.metrics.collector import AppWindowStats
from repro.metrics.latency import LatencySummary
from repro.ssd.presets import samsung_980pro_like
from repro.surrogate.features import TARGET_NAMES, TARGET_P99_CAP_US, targets_from_stats
from repro.surrogate.filter import SurrogatePrefilter
from repro.tune.slo import (
    VIOLATION_CAP,
    SloSpec,
    full_speed_delivery,
    score_cgroup_stats,
    utilization_reference_mib_s,
)
from repro.workloads.spec import JobSpec

SCALE = 8.0
#: The tenant's objective at full speed: p99 <= 100 us, >= 50 MiB/s.
TENANT = TenantSpec("t", kind="lc", slo="p99<=100,bw>=50")
GROUP = TENANT.group_slo()
SLO = SloSpec(groups=(GROUP,))


def dilated(p99_us: float | None, mib: int) -> AppWindowStats:
    """One second of dilated stats: ``mib`` MiB moved, p99 ``p99_us``."""
    latency = None
    if p99_us is not None:
        latency = LatencySummary(1, p99_us, p99_us, p99_us, p99_us, p99_us, p99_us)
    return AppWindowStats("t", GROUP.cgroup, 1, mib * 1024 * 1024, 1e6, latency)


#: (dilated stats, full-speed p99 or None, full-speed MiB/s).
CASES = {
    "served": (dilated(1200.0, 5), 150.0, 40.0),
    "bytes-without-latency": (dilated(None, 5), None, 40.0),
    "missing": (None, None, 0.0),
    "p99-past-the-target-cap": (
        dilated(SCALE * 2 * TARGET_P99_CAP_US, 5),
        2 * TARGET_P99_CAP_US,
        40.0,
    ),
}


class FixedModel:
    """A fitted model's stand-in: one full-speed prediction for every row."""

    target_names = TARGET_NAMES

    def __init__(self, p99_us: float, bandwidth_mib_s: float):
        self.means = [p99_us, bandwidth_mib_s, 0.0]

    def predict(self, rows, blocks=None):
        n = len(rows)
        return np.tile(self.means, (n, 1)), np.zeros((n, len(TARGET_NAMES)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_consumer_reads_one_delivery(case):
    stats, p99, bandwidth = CASES[case]
    assert full_speed_delivery(stats, SCALE) == (p99, bandwidth)
    # Hand-computed: the capped p99 excess over 100 us, the bandwidth
    # shortfall under 50 MiB/s.
    p99_violation = VIOLATION_CAP
    if p99 is not None:
        p99_violation = min(VIOLATION_CAP, p99 / 100.0 - 1.0)
    bandwidth_violation = (50.0 - bandwidth) / 50.0
    total = p99_violation + bandwidth_violation

    # SLO terms: a starved group's p99 measures inf.
    groups = {} if stats is None else {GROUP.cgroup: stats}
    score = score_cgroup_stats(SLO, groups, SCALE)
    p99_term, bandwidth_term = score.terms
    assert p99_term.measured == (math.inf if p99 is None else p99)
    assert p99_term.violation == p99_violation
    assert (bandwidth_term.measured, bandwidth_term.violation) == (
        bandwidth,
        bandwidth_violation,
    )
    assert score.total == total

    # Fleet: a starved tenant measures STARVED_P99_US and scores alike.
    measure = measure_from_stats(stats, SCALE)
    assert measure == TenantMeasure(
        p99_us=STARVED_P99_US if p99 is None else p99, bandwidth_mib_s=bandwidth
    )
    assert slo_violation(measure, TENANT) == total

    # Surrogate targets: starved, and anything past it, trains at the cap.
    ssd = samsung_980pro_like()
    reference = utilization_reference_mib_s(ssd)
    assert targets_from_stats(stats, SCALE, reference) == (
        TARGET_P99_CAP_US if p99 is None else min(TARGET_P99_CAP_US, p99),
        bandwidth,
        bandwidth / reference,
    )

    # Prefilter: the same delivery predicted at full speed scores alike;
    # a predicted p99 at or past the cap reads as starved.
    model = FixedModel(TARGET_P99_CAP_US if p99 is None else p99, bandwidth)
    prefilter = SurrogatePrefilter(model=model, slo=SLO, ssd=ssd)
    app = JobSpec(name="t", cgroup_path=GROUP.cgroup, queue_depth=1, app_class="lc")
    scenario = Scenario(
        name="convention", knob=NoneKnob(), apps=[app], device_scale=SCALE
    )
    predicted_total, _ = prefilter.predict_scenario(scenario)
    assert predicted_total == total


class TestPairEffectClamps:
    """Measured and predicted matrix pairs share one clamp."""

    BASE = TenantMeasure(p99_us=100.0, bandwidth_mib_s=50.0)

    @pytest.mark.parametrize(
        "shared,ratio,retention",
        [
            (TenantMeasure(400.0, 25.0), 4.0, 0.5),
            (TenantMeasure(50.0, 80.0), 1.0, 1.0),  # better than solo: neutral
            (TenantMeasure(STARVED_P99_US, 0.0), STARVED_P99_US / 100.0, 1e-6),
        ],
        ids=["degraded", "improved", "starved"],
    )
    def test_ratio_at_least_one_and_retention_in_range(self, shared, ratio, retention):
        effect = pair_effect("a", "b", self.BASE, shared)
        assert (effect.tenant, effect.partner, effect.predicted) == ("a", "b", False)
        assert (effect.p99_ratio, effect.bandwidth_retention) == (ratio, retention)

    def test_zero_baseline_is_neutral(self):
        zero = TenantMeasure(p99_us=0.0, bandwidth_mib_s=0.0)
        effect = pair_effect("a", "b", zero, TenantMeasure(400.0, 25.0), predicted=True)
        assert (effect.p99_ratio, effect.bandwidth_retention) == (1.0, 1.0)
        assert effect.predicted
