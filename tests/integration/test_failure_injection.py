"""Failure injection: GC stalls and overload behaviour.

These tests drive the simulation through degraded-device conditions and
check the system stays well-behaved (no lost requests, sane metrics) and
that the degradations surface where they should (tail latency).
"""

import dataclasses

import pytest

from repro import IoMaxKnob, MIB, NoneKnob, Scenario, run_scenario
from repro.core.host import Host
from repro.ssd.gc import GcPauseInjector
from repro.workloads.apps import batch_app, lc_app


def scenario(knob, apps, **overrides):
    kwargs = dict(
        name="failure-it",
        knob=knob,
        apps=apps,
        duration_s=0.3,
        warmup_s=0.1,
        device_scale=8.0,
        cores=4,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestGcPauses:
    def run_lc_with_pauses(self, pause_us):
        host = Host(
            scenario(NoneKnob(), [lc_app("lc", "/t/lc")], device_scale=1.0, cores=1)
        )
        if pause_us:
            # Block every flash unit: a full-device GC stall. The stall
            # recurs often enough that >1% of a QD=1 app's requests hit
            # one (a closed-loop app only ever has one request exposed
            # per stall).
            injector = GcPauseInjector(
                host.sim,
                host.devices[0].flash,
                interval_us=8_000.0,
                pause_us=pause_us,
                units=host.devices[0].model.parallelism,
            )
            injector.start()
        host.run()
        return host.collector.logs["lc"].stats(0.1e6, 0.3e6)

    def test_gc_pauses_inflate_tail_latency(self):
        clean = self.run_lc_with_pauses(0.0)
        stalled = self.run_lc_with_pauses(4_000.0)
        assert stalled.latency.p99_us > 5.0 * clean.latency.p99_us
        # Median is less affected: pauses are a tail phenomenon.
        assert stalled.latency.p50_us < 1.5 * clean.latency.p50_us

    def test_all_requests_still_complete(self):
        stats = self.run_lc_with_pauses(4_000.0)
        assert stats.ios > 100


class TestOverload:
    def test_open_loop_overload_backlog_grows_but_completions_continue(self):
        # Arrivals far above device capacity.
        spec = dataclasses.replace(
            lc_app("ol", "/t/ol"), arrival_rate_iops=1_000_000.0
        )
        result = run_scenario(scenario(NoneKnob(), [spec], duration_s=0.1, warmup_s=0.02))
        stats = result.app_stats("ol")
        assert stats.ios > 0
        app = result.host.apps["ol"]
        assert app.outstanding > 1000  # backlog grew

    def test_starved_app_under_tight_iomax_survives(self):
        knob = IoMaxKnob(limits={"/t/a": {"rbps": 1 * MIB}})
        result = run_scenario(
            scenario(knob, [batch_app("a", "/t/a", queue_depth=64)], duration_s=0.5)
        )
        stats = result.app_stats("a")
        # Throttled to ~1 MiB/s (scaled), but alive and accounted.
        assert 0 < stats.bandwidth_mib_s < 3.0
        assert result.work_conservation_violation > 0.9

    def test_nvme_qd_bound_respected_under_flood(self):
        import repro.ssd.model as ssd_model
        from repro.ssd.presets import samsung_980pro_like

        base = samsung_980pro_like()
        tight = dataclasses.replace(base, nvme_max_qd=8)
        result = run_scenario(
            scenario(
                NoneKnob(),
                [batch_app("a", "/t/a", queue_depth=64)],
                ssd_model=tight,
            )
        )
        # Requests completed despite the tiny device window.
        assert result.app_stats("a").ios > 100
