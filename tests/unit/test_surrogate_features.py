"""Unit tests for the surrogate feature encoding and training targets.

The feature schema is a frozen contract between corpus, model, and
prefilter: pinned width, pinned version, finite cells, sorted cgroup
order, and training targets in full-device-speed units with starved
groups at the :data:`TARGET_P99_CAP_US` ceiling.
"""

import math

import pytest

from repro.core.config import IoMaxKnob, NoneKnob, Scenario
from repro.surrogate.features import (
    FEATURE_SCHEMA_VERSION,
    TARGET_NAMES,
    TARGET_P99_CAP_US,
    feature_names,
    featurize,
    featurize_scenario,
    scenario_cgroups,
    targets_from_stats,
)
from repro.tune.slo import utilization_reference_mib_s
from repro.workloads.spec import JobSpec


def make_scenario(knob=None) -> Scenario:
    apps = [
        JobSpec(name="prio", cgroup_path="/t/prio", queue_depth=8, app_class="lc"),
        JobSpec(name="be0", cgroup_path="/t/be", queue_depth=32, read_fraction=0.5),
        JobSpec(name="be1", cgroup_path="/t/be", queue_depth=32, read_fraction=0.5),
    ]
    return Scenario(
        name="feat-test", knob=knob or NoneKnob(), apps=apps, device_scale=8.0
    )


class FakeLatency:
    def __init__(self, p99_us):
        self.p99_us = p99_us


class FakeStats:
    def __init__(self, p99_us, bandwidth_mib_s):
        self.latency = FakeLatency(p99_us) if p99_us is not None else None
        self.bandwidth_mib_s = bandwidth_mib_s


class TestFeatureSchema:
    def test_width_and_version_are_pinned(self):
        # Widening the vector must bump FEATURE_SCHEMA_VERSION (saved
        # models refuse mismatched corpora); this pin forces the bump.
        assert len(feature_names()) == 59
        assert FEATURE_SCHEMA_VERSION == 1
        assert TARGET_NAMES == ("p99_us", "bandwidth_mib_s", "util")

    def test_names_unique_and_stable(self):
        names = feature_names()
        assert len(names) == len(set(names))
        assert names == feature_names()

    def test_featurize_is_full_width_and_finite(self):
        scenario = make_scenario()
        for cgroup in scenario_cgroups(scenario):
            row = featurize(scenario, cgroup)
            assert len(row) == len(feature_names())
            assert all(math.isfinite(cell) for cell in row)

    def test_cgroups_sorted_and_deduped(self):
        assert scenario_cgroups(make_scenario()) == ["/t/be", "/t/prio"]

    def test_knob_identity_changes_features(self):
        plain = featurize_scenario(make_scenario())
        capped = featurize_scenario(
            make_scenario(IoMaxKnob(limits={"/t/be": {"rbps": 10**8}}))
        )
        assert plain != capped


class TestTargets:
    def test_full_speed_units(self):
        p99, bandwidth, util = targets_from_stats(FakeStats(800.0, 10.0), 8.0, 400.0)
        assert p99 == pytest.approx(100.0)  # /= scale
        assert bandwidth == pytest.approx(80.0)  # *= scale
        assert util == pytest.approx(0.2)

    def test_starved_group_trains_at_the_cap(self):
        p99, bandwidth, _ = targets_from_stats(FakeStats(None, 0.0), 8.0, 400.0)
        assert p99 == TARGET_P99_CAP_US
        assert bandwidth == 0.0

    def test_missing_group_trains_at_the_cap(self):
        assert targets_from_stats(None, 1.0, 400.0) == (TARGET_P99_CAP_US, 0.0, 0.0)

    def test_measured_p99_clamps_to_the_cap(self):
        stats = FakeStats(10.0 * TARGET_P99_CAP_US, 1.0)
        p99, _, _ = targets_from_stats(stats, 1.0, None)
        assert p99 == TARGET_P99_CAP_US

    def test_no_reference_means_zero_util(self):
        assert targets_from_stats(FakeStats(100.0, 10.0), 1.0, None)[2] == 0.0

    def test_utilization_reference_positive(self):
        assert utilization_reference_mib_s(make_scenario().ssd_model) > 0.0
