"""Integration tests for host wiring details and result plumbing."""

import dataclasses

import pytest

from repro import (
    IoCostKnob,
    IoLatencyKnob,
    MIB,
    IoMaxKnob,
    NoneKnob,
    Scenario,
    run_scenario,
)
from repro.core.config import DynamicIoMaxKnob
from repro.core.host import Host
from repro.iocontrol.base import PassthroughThrottle
from repro.iocontrol.iocost import IoCostController
from repro.iocontrol.iolatency import IoLatencyController
from repro.iocontrol.iomax import IoMaxController
from repro.workloads.apps import batch_app, lc_app
from repro.workloads.spec import ActivityWindow


def scenario(knob, apps=None, **overrides):
    kwargs = dict(
        name="host-it",
        knob=knob,
        apps=apps or [batch_app("a", "/t/a", queue_depth=8)],
        duration_s=0.15,
        warmup_s=0.05,
        device_scale=8.0,
        cores=4,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestWiring:
    def test_throttle_types_per_knob(self):
        cases = [
            (NoneKnob(), PassthroughThrottle),
            (IoMaxKnob(), IoMaxController),
            (DynamicIoMaxKnob(weights={"/t/a": 100}), IoMaxController),
            (IoLatencyKnob(), IoLatencyController),
            (IoCostKnob(), IoCostController),
        ]
        for knob, expected in cases:
            host = Host(scenario(knob))
            assert isinstance(host.throttles[0], expected), knob.label

    def test_one_scheduler_and_engine_per_device(self):
        host = Host(scenario(NoneKnob(), num_devices=3))
        assert len(host.schedulers) == 3
        assert len(host.engines) == 3
        assert len(host.wc_probes) == 3

    def test_cgroup_tree_built_from_specs(self):
        host = Host(
            scenario(
                NoneKnob(),
                apps=[
                    batch_app("a", "/tenants/prod/a", queue_depth=4),
                    batch_app("b", "/tenants/dev/b", queue_depth=4),
                ],
            )
        )
        prod = host.hierarchy.find("/tenants/prod/a")
        assert "a" in prod.processes
        assert "io" in host.hierarchy.find("/tenants").subtree_control

    def test_scaled_profile_costs(self):
        host = Host(scenario(NoneKnob(), device_scale=8.0))
        from repro.cpu.model import profile_for_knob

        base = profile_for_knob("none")
        assert host.profile.cost_qd1_us == pytest.approx(base.cost_qd1_us * 8)

    def test_scaled_scheduler_lock(self):
        host = Host(scenario(NoneKnob(), device_scale=8.0))
        from repro.iocontrol.nonectl import NoneScheduler

        assert host.schedulers[0].lock_overhead_us == pytest.approx(
            NoneScheduler.lock_overhead_us * 8
        )

    def test_no_page_cache_for_direct_only(self):
        host = Host(scenario(NoneKnob()))
        assert host.page_caches == []

    def test_no_managers_without_dynamic_knob(self):
        host = Host(scenario(IoMaxKnob()))
        assert host.iomax_managers == []

    def test_dynamic_knob_gets_manager_per_device(self):
        host = Host(
            scenario(DynamicIoMaxKnob(weights={"/t/a": 100}), num_devices=2)
        )
        assert len(host.iomax_managers) == 2


class TestResultPlumbing:
    def test_work_conservation_none_is_low(self):
        result = run_scenario(scenario(NoneKnob()))
        assert result.work_conservation_violation < 0.05

    def test_work_conservation_tight_iomax_is_high(self):
        knob = IoMaxKnob(limits={"/t/a": {"rbps": 5 * MIB}})
        result = run_scenario(scenario(knob))
        assert result.work_conservation_violation > 0.5

    def test_window_us(self):
        result = run_scenario(scenario(NoneKnob()))
        assert result.window_us == pytest.approx(0.1e6)

    def test_equivalent_bandwidth_scales(self):
        result = run_scenario(scenario(NoneKnob(), device_scale=8.0))
        assert result.equivalent_bandwidth_gib_s == pytest.approx(
            result.aggregate_bandwidth_gib_s * 8.0
        )

    def test_latency_cdf_accessor(self):
        result = run_scenario(scenario(NoneKnob()))
        values, probs = result.latency_cdf("a", points=20)
        assert len(values) == 20
        assert values == sorted(values)

    def test_open_loop_app_runs_through_host(self):
        spec = dataclasses.replace(
            lc_app("ol", "/t/ol"), arrival_rate_iops=2_000.0
        )
        result = run_scenario(scenario(NoneKnob(), apps=[spec]))
        stats = result.app_stats("ol")
        assert stats.ios > 50

    def test_burst_window_app_counts_only_inside_window(self):
        spec = dataclasses.replace(
            batch_app("b", "/t/b", queue_depth=4),
            windows=(ActivityWindow(0.1e6),),
        )
        result = run_scenario(scenario(NoneKnob(), apps=[spec]))
        early = result.app_stats_window("b", 0.0, 0.09e6)
        assert early.ios == 0
