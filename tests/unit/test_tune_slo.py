"""Unit tests for SLO specs, parsing and violation scoring."""

import math

import pytest

from repro.core.config import NoneKnob, Scenario
from repro.core.scenarios import PRIORITY_GROUP, robustness_specs
from repro.exec.summary import run_scenario_summary
from repro.ssd.presets import samsung_980pro_like
from repro.tune.slo import (
    VIOLATION_CAP,
    GroupSlo,
    SloSpec,
    parse_slo,
    score_summary,
    utilization_reference_mib_s,
)


class TestSpecValidation:
    def test_group_needs_an_objective(self):
        with pytest.raises(ValueError, match="no objective"):
            GroupSlo("/tenants/a")

    def test_group_path_must_be_absolute(self):
        with pytest.raises(ValueError, match="absolute"):
            GroupSlo("tenants/a", p99_latency_us=100.0)

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError):
            GroupSlo("/a", p99_latency_us=-1.0)
        with pytest.raises(ValueError):
            GroupSlo("/a", min_bandwidth_mib_s=0.0)

    def test_spec_needs_groups(self):
        with pytest.raises(ValueError, match="at least one group"):
            SloSpec(groups=())

    def test_duplicate_groups_rejected(self):
        group = GroupSlo("/a", p99_latency_us=10.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloSpec(groups=(group, group))

    def test_utilization_floor_bounds(self):
        group = GroupSlo("/a", p99_latency_us=10.0)
        with pytest.raises(ValueError, match="utilization_floor"):
            SloSpec(groups=(group,), utilization_floor=1.5)


class TestParse:
    def test_full_clause(self):
        spec = parse_slo("/tenants/prio:p99<=400,bw>=40;util>=0.25")
        assert spec.groups == (
            GroupSlo("/tenants/prio", p99_latency_us=400.0, min_bandwidth_mib_s=40.0),
        )
        assert spec.utilization_floor == 0.25

    def test_unit_suffixes_accepted(self):
        spec = parse_slo("/a:p99<=400us,bw>=40mib")
        assert spec.groups[0].p99_latency_us == 400.0
        assert spec.groups[0].min_bandwidth_mib_s == 40.0

    def test_multiple_groups(self):
        spec = parse_slo("/a:p99<=100;/b:bw>=200")
        assert [g.cgroup for g in spec.groups] == ["/a", "/b"]

    def test_describe_round_trips(self):
        text = "/tenants/prio:p99<=100,bw>=40;util>=0.25"
        assert parse_slo(parse_slo(text).describe()).describe() == text

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_slo("/a:p99>100")
        with pytest.raises(ValueError, match="cannot parse"):
            parse_slo("no-slash:p99<=1")

    def test_duplicate_util_rejected(self):
        with pytest.raises(ValueError, match="duplicate util"):
            parse_slo("util>=0.2;util>=0.3")


@pytest.fixture(scope="module")
def summary():
    """One tiny uncontrolled run of the D5 workload shape."""
    scenario = Scenario(
        name="slo-score-probe",
        knob=NoneKnob(),
        apps=robustness_specs(be_queue_depth=16, n_be_apps=1),
        ssd_model=samsung_980pro_like(),
        duration_s=0.2,
        warmup_s=0.05,
        device_scale=32.0,
        cores=4,
    )
    return run_scenario_summary(scenario)


class TestScoring:
    def test_met_slo_scores_zero(self, summary):
        spec = SloSpec(
            groups=(GroupSlo(PRIORITY_GROUP, p99_latency_us=1e9),),
        )
        score = score_summary(spec, summary)
        assert score.total == 0.0
        assert score.meets_slo
        assert not score.needs_tightening

    def test_latency_violation_is_relative_excess(self, summary):
        stats = summary.cgroup_stats()[PRIORITY_GROUP]
        measured = stats.latency.p99_us / summary.device_scale
        target = measured / 2.0
        spec = SloSpec(groups=(GroupSlo(PRIORITY_GROUP, p99_latency_us=target),))
        score = score_summary(spec, summary)
        assert score.latency_total == pytest.approx(1.0, rel=1e-9)
        assert score.needs_tightening

    def test_bandwidth_violation_is_relative_shortfall(self, summary):
        stats = summary.cgroup_stats()[PRIORITY_GROUP]
        measured = stats.bandwidth_mib_s * summary.device_scale
        spec = SloSpec(
            groups=(GroupSlo(PRIORITY_GROUP, min_bandwidth_mib_s=measured * 4.0),)
        )
        score = score_summary(spec, summary)
        assert score.bandwidth_total == pytest.approx(0.75, rel=1e-9)
        assert not score.needs_tightening

    def test_starved_group_scores_the_cap(self, summary):
        spec = SloSpec(
            groups=(
                GroupSlo("/tenants/ghost", p99_latency_us=1.0, min_bandwidth_mib_s=1.0),
            )
        )
        score = score_summary(spec, summary)
        assert score.latency_total == VIOLATION_CAP
        assert score.bandwidth_total == 1.0  # shortfall is capped at 100%
        (p99_term, _) = score.terms
        assert p99_term.measured == math.inf
        assert p99_term.to_json_dict()["measured"] == "inf"

    def test_utilization_term_uses_device_reference(self, summary):
        ssd = samsung_980pro_like()
        spec = SloSpec(
            groups=(GroupSlo(PRIORITY_GROUP, p99_latency_us=1e9),),
            utilization_floor=1.0,
        )
        score = score_summary(spec, summary, ssd=ssd)
        util_term = score.terms[-1]
        assert util_term.kind == "utilization"
        expected = (
            summary.equivalent_bandwidth_gib_s
            * 1024.0
            / utilization_reference_mib_s(ssd)
        )
        assert util_term.measured == pytest.approx(expected)

    def test_utilization_needs_reference_or_model(self, summary):
        spec = SloSpec(
            groups=(GroupSlo(PRIORITY_GROUP, p99_latency_us=1e9),),
            utilization_floor=0.5,
        )
        with pytest.raises(ValueError, match="utilization_floor"):
            score_summary(spec, summary)

    def test_weights_scale_the_total(self, summary):
        groups = (GroupSlo(PRIORITY_GROUP, p99_latency_us=1.0),)
        plain = score_summary(SloSpec(groups=groups), summary)
        doubled = score_summary(SloSpec(groups=groups, latency_weight=2.0), summary)
        assert doubled.total == pytest.approx(2.0 * plain.total)
