"""ScenarioSummary: serialization contract and accessor parity.

The summary is what crosses process boundaries and lives in the result
cache, so the tests here pin its three guarantees: it pickles and
JSON-round-trips unchanged, it never smuggles the live Host along, and
every accessor the figure/table modules use agrees with the equivalent
ScenarioResult accessor on the same run.
"""

import json
import pickle

import pytest

from repro.core.config import NoneKnob, Scenario
from repro.core.runner import run_scenario
from repro.exec.summary import ScenarioSummary, summarize
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.apps import batch_app, lc_app


@pytest.fixture(scope="module")
def run_pair():
    """One small two-cgroup run, as (ScenarioResult, ScenarioSummary)."""
    scenario = Scenario(
        name="summary-contract",
        knob=NoneKnob(),
        apps=[
            batch_app("batch0", "/tenants/a"),
            lc_app("lc0", "/tenants/b"),
        ],
        ssd_model=samsung_980pro_like(),
        duration_s=0.08,
        warmup_s=0.02,
        seed=7,
        device_scale=8.0,
    )
    result = run_scenario(scenario)
    return result, summarize(result)


class TestSerialization:
    def test_pickle_round_trip(self, run_pair):
        _, summary = run_pair
        clone = pickle.loads(pickle.dumps(summary))
        assert isinstance(clone, ScenarioSummary)
        assert clone.content_equal(summary)
        # Full equality including wall_seconds: pickling loses nothing.
        assert clone.to_json_dict() == summary.to_json_dict()

    def test_json_round_trip(self, run_pair):
        _, summary = run_pair
        text = json.dumps(summary.to_json_dict())
        clone = ScenarioSummary.from_json_dict(json.loads(text))
        assert clone.content_equal(summary)
        assert clone.apps.keys() == summary.apps.keys()
        assert clone.cpu == summary.cpu

    def test_no_host_attribute(self, run_pair):
        _, summary = run_pair
        assert not hasattr(summary, "host")
        assert "host" not in summary.to_json_dict()

    def test_content_equal_ignores_wall_seconds(self, run_pair):
        _, summary = run_pair
        clone = pickle.loads(pickle.dumps(summary))
        clone.wall_seconds = summary.wall_seconds + 123.0
        assert clone.content_equal(summary)
        clone.seed += 1
        assert not clone.content_equal(summary)


class TestAccessorParity:
    def test_window(self, run_pair):
        result, summary = run_pair
        assert summary.t_start_us == result.t_start_us
        assert summary.t_end_us == result.t_end_us
        assert summary.window_us == result.window_us

    def test_app_stats(self, run_pair):
        result, summary = run_pair
        for name in summary.app_names():
            assert summary.app_stats(name) == result.app_stats(name)
        assert summary.all_app_stats() == result.all_app_stats()

    def test_cgroup_stats(self, run_pair):
        result, summary = run_pair
        assert summary.cgroup_stats() == result.cgroup_stats()

    def test_window_latencies(self, run_pair):
        result, summary = run_pair
        for name in summary.app_names():
            assert summary.window_latencies(
                name, result.t_start_us, result.t_end_us
            ) == result.window_latencies(name, result.t_start_us, result.t_end_us)

    def test_bandwidth_and_fairness(self, run_pair):
        result, summary = run_pair
        assert summary.aggregate_bandwidth_gib_s == result.aggregate_bandwidth_gib_s
        assert summary.equivalent_bandwidth_gib_s == result.equivalent_bandwidth_gib_s
        weights = {"/tenants/a": 1.0, "/tenants/b": 1.0}
        assert summary.fairness(weights) == result.fairness(weights)

    def test_series_of(self, run_pair):
        result, summary = run_pair
        for name in summary.app_names():
            assert summary.series_of(name) == result.series_of(name)

    def test_counters_and_labels(self, run_pair):
        result, summary = run_pair
        assert summary.events_processed == result.events_processed
        assert summary.scenario_name == result.scenario.name
        assert summary.knob_label == result.scenario.knob.label
        assert summary.work_conservation_violation == result.work_conservation_violation

    def test_describe_mentions_every_app(self, run_pair):
        _, summary = run_pair
        text = summary.describe()
        for name in summary.app_names():
            assert name in text
