"""Tests for the repro.obs tracing and sampling subsystem.

Covers the span lifecycle invariants (monotonic timestamps, attribution
summing to end-to-end latency), sampler behaviour and determinism across
identical seeds, and the pay-for-what-you-use contract (no artifacts
when tracing is off, span cap respected).
"""

import pytest

from repro import IoCostKnob, IoMaxKnob, NoneKnob, Scenario, TraceConfig, run_scenario
from repro.iorequest import KIB, MIB
from repro.obs.sampler import StackSampler
from repro.obs.span import RequestTracer
from repro.sim.engine import Simulator
from repro.workloads.apps import batch_app, lc_app

TOL = 1e-6


def traced_scenario(knob=None, trace=TraceConfig(sample_period_us=5_000.0), seed=42):
    return Scenario(
        name="obs-test",
        knob=knob or NoneKnob(),
        apps=[
            batch_app("batch0", "/tenants/batch", size=64 * KIB),
            lc_app("lc0", "/tenants/lc"),
        ],
        duration_s=0.1,
        warmup_s=0.02,
        device_scale=8.0,
        seed=seed,
        trace=trace,
    )


@pytest.fixture(scope="module")
def traced_result():
    return run_scenario(traced_scenario())


class TestSpanInvariants:
    def test_spans_recorded_for_every_completion(self, traced_result):
        trace = traced_result.trace
        total_ios = sum(
            len(traced_result.series_of(name)[0]) for name in traced_result.app_names()
        )
        assert len(trace.spans) == total_ios > 0

    def test_timestamps_monotonic_through_the_stack(self, traced_result):
        for span in traced_result.trace.spans:
            assert (
                span.submit_us
                <= span.admit_us
                <= span.dispatch_us
                <= span.device_us
                <= span.complete_us
            )

    def test_attribution_sums_to_end_to_end_latency(self, traced_result):
        for span in traced_result.trace.spans:
            total = span.held_us + span.queued_us + span.service_us
            assert total == pytest.approx(span.latency_us, abs=TOL)
            assert span.device_wait_us >= 0.0

    def test_throttled_scenario_attributes_held_time(self):
        scenario = traced_scenario(
            knob=IoMaxKnob(limits={"/tenants/batch": {"rbps": 4 * MIB}})
        )
        result = run_scenario(scenario)
        attribution = result.trace.attribution()
        assert attribution["batch0"].mean_held_us > attribution["lc0"].mean_held_us
        for attr in attribution.values():
            total = attr.held_us + attr.queued_us + attr.service_us
            assert total == pytest.approx(attr.latency_us, rel=1e-9)

    def test_cgroup_attribution_groups_by_path(self, traced_result):
        by_group = traced_result.trace.attribution(by="cgroup")
        by_app = traced_result.trace.attribution(by="app")
        assert set(by_group) == {"/tenants/batch", "/tenants/lc"}
        assert sum(a.ios for a in by_group.values()) == sum(
            a.ios for a in by_app.values()
        )

    def test_attribution_rejects_unknown_key(self, traced_result):
        with pytest.raises(ValueError):
            traced_result.trace.attribution(by="device")


class TestSampler:
    def test_samples_cover_the_run_at_the_configured_period(self, traced_result):
        samples = traced_result.trace.samples
        scenario = traced_result.scenario
        expected = int(scenario.duration_us / scenario.trace.sample_period_us)
        assert len(samples) == expected
        times = [row["t_us"] for row in samples]
        assert times == sorted(times)

    def test_samples_include_engine_and_stack_state(self, traced_result):
        row = traced_result.trace.samples[0]
        assert "engine.pending_events" in row
        assert "dev0.throttle.pending" in row
        assert "dev0.sched.queued" in row
        assert "dev0.ssd.in_flight" in row

    def test_iostat_counters_are_cumulative(self, traced_result):
        key = "cgroup./tenants/batch.rbytes"
        values = [row[key] for row in traced_result.trace.samples if key in row]
        assert values, "expected io.stat counters for the batch group"
        assert values == sorted(values)
        assert values[-1] > 0

    def test_iocost_internals_sampled(self):
        result = run_scenario(traced_scenario(knob=IoCostKnob()))
        keys = result.trace.sample_keys()
        assert any(key.endswith("io.cost.vrate_pct") for key in keys)
        assert any(".io.cost.group." in key for key in keys)

    def test_sampler_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            StackSampler(Simulator(), 0.0, dict)


class TestSamplerStreaming:
    """The subscribe/retain contract the repro.ctl plane builds on."""

    def counting_sampler(self, retain=True):
        sim = Simulator()
        counter = {"n": 0}

        def snapshot():
            counter["n"] += 1
            return {"n": counter["n"]}

        sampler = StackSampler(sim, 10.0, snapshot, retain=retain)
        return sim, sampler

    def test_subscribers_see_every_row_in_order(self):
        sim, sampler = self.counting_sampler()
        seen = []
        sampler.subscribe(seen.append)
        sampler.start()
        sim.run_until(55.0)
        assert [row["n"] for row in seen] == [1, 2, 3, 4, 5]
        assert [row["t_us"] for row in seen] == [10.0, 20.0, 30.0, 40.0, 50.0]
        # Streaming and retention describe the same rows.
        assert seen == sampler.samples

    def test_subscribers_run_in_subscription_order(self):
        sim, sampler = self.counting_sampler()
        order = []
        sampler.subscribe(lambda row: order.append("first"))
        sampler.subscribe(lambda row: order.append("second"))
        sampler.start()
        sim.run_until(15.0)
        assert order == ["first", "second"]

    def test_retain_false_feeds_subscribers_but_keeps_no_history(self):
        sim, sampler = self.counting_sampler(retain=False)
        seen = []
        sampler.subscribe(seen.append)
        sampler.start()
        sim.run_until(35.0)
        assert len(seen) == 3
        assert sampler.samples == []

    def test_start_is_idempotent(self):
        sim, sampler = self.counting_sampler()
        sampler.start()
        sampler.start()
        sim.run_until(25.0)
        assert len(sampler.samples) == 2  # one tick chain, not two

    def test_stop_halts_the_stream(self):
        sim, sampler = self.counting_sampler()
        seen = []
        sampler.subscribe(seen.append)
        sampler.start()
        sim.run_until(25.0)
        sampler.stop()
        sim.run_until(100.0)
        assert len(seen) == 2


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        a = run_scenario(traced_scenario(seed=7)).trace
        b = run_scenario(traced_scenario(seed=7)).trace
        assert a.spans == b.spans
        assert a.samples == b.samples

    def test_different_seeds_diverge(self):
        a = run_scenario(traced_scenario(seed=7)).trace
        b = run_scenario(traced_scenario(seed=8)).trace
        assert a.spans != b.spans


class TestPayForWhatYouUse:
    def test_disabled_tracing_yields_no_artifact(self):
        result = run_scenario(traced_scenario(trace=None))
        assert result.trace is None
        assert result.host.tracer is None
        assert result.host.sampler is None

    def test_spans_only_config_skips_sampler(self):
        result = run_scenario(
            traced_scenario(trace=TraceConfig(sample_period_us=0.0))
        )
        assert result.host.sampler is None
        assert result.trace.samples == []
        assert result.trace.spans

    def test_sampling_only_config_skips_tracer(self):
        result = run_scenario(
            traced_scenario(trace=TraceConfig(spans=False, sample_period_us=5_000.0))
        )
        assert result.host.tracer is None
        assert result.trace.spans == []
        assert result.trace.samples

    def test_max_spans_caps_memory(self):
        result = run_scenario(
            traced_scenario(trace=TraceConfig(max_spans=100, sample_period_us=0.0))
        )
        trace = result.trace
        assert len(trace.spans) == 100
        assert trace.dropped_spans > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_period_us=-1.0)
        with pytest.raises(ValueError):
            TraceConfig(max_spans=-5)


class TestPerfCounters:
    def test_result_surfaces_engine_counters(self, traced_result):
        assert traced_result.events_processed > 0
        assert traced_result.wall_seconds > 0
        assert traced_result.events_per_sec > 0
        assert f"{traced_result.events_processed:,}" in traced_result.describe()

    def test_tracer_standalone_records_dropped(self):
        tracer = RequestTracer(max_spans=1)
        from repro.iorequest import IoRequest, OpType, Pattern

        for _ in range(3):
            tracer.record(
                IoRequest("a", "/g", OpType.READ, Pattern.RANDOM, 4096)
            )
        assert len(tracer.spans) == 1
        assert tracer.dropped == 2
