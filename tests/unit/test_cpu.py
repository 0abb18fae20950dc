"""Unit tests for the CPU model: profiles, core sets, accounting."""

import pytest

from repro.cpu.accounting import CpuAccounting
from repro.cpu.cores import CoreSet
from repro.cpu.model import CYCLES_PER_US, KNOB_PROFILES, CpuCostProfile, profile_for_knob
from repro.sim.engine import Simulator


class TestProfiles:
    def test_all_knobs_have_profiles(self):
        for name in ("none", "mq-deadline", "bfq", "io.max", "io.latency", "io.cost"):
            assert profile_for_knob(name).name == name

    def test_unknown_knob(self):
        with pytest.raises(KeyError):
            profile_for_knob("cfq")

    def test_cost_interpolation_endpoints(self):
        profile = CpuCostProfile("t", cost_qd1_us=10.0, cost_batched_us=2.0, ctx_switches_per_io=1.0)
        assert profile.cost_per_io_us(1) == pytest.approx(10.0)
        assert profile.cost_per_io_us(256) == pytest.approx(2.0, rel=0.05)

    def test_cost_monotonically_decreases_with_qd(self):
        profile = profile_for_knob("none")
        costs = [profile.cost_per_io_us(qd) for qd in (1, 2, 4, 8, 64, 256)]
        assert costs == sorted(costs, reverse=True)

    def test_submit_plus_complete_equals_total(self):
        profile = profile_for_knob("io.cost")
        for qd in (1, 8, 256):
            total = profile.submit_cost_us(qd) + profile.complete_cost_us(qd)
            assert total == pytest.approx(profile.cost_per_io_us(qd))

    def test_schedulers_cost_more_than_none(self):
        none = profile_for_knob("none")
        for sched in ("mq-deadline", "bfq"):
            assert profile_for_knob(sched).cost_qd1_us > none.cost_qd1_us

    def test_only_iocost_has_saturated_latency_penalty(self):
        penalized = [
            name
            for name, profile in KNOB_PROFILES.items()
            if profile.saturated_extra_latency_us > 0
        ]
        assert penalized == ["io.cost"]

    def test_only_schedulers_have_affinity_skew(self):
        skewed = {
            name
            for name, profile in KNOB_PROFILES.items()
            if profile.saturation_unfairness_sigma > 0
        }
        assert skewed == {"mq-deadline", "bfq"}


class TestCoreSet:
    def test_core_count_validated(self):
        with pytest.raises(ValueError):
            CoreSet(Simulator(), 0)

    def test_charge_runs_work(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        done = []
        cores.charge(10.0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [10.0]

    def test_zero_cost_completes_synchronously(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        done = []
        cores.charge(0.0, lambda _: done.append(True), None)
        assert done == [True]

    def test_work_queues_on_busy_core(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        done = []
        cores.charge(10.0, lambda _: done.append(sim.now), None)
        cores.charge(10.0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [10.0, 20.0]

    def test_multi_core_parallelism(self):
        sim = Simulator()
        cores = CoreSet(sim, 4)
        done = []
        for _ in range(4):
            cores.charge(10.0, lambda _: done.append(sim.now), None)
        sim.run()
        assert done == [10.0] * 4

    def test_utilization_window(self):
        sim = Simulator()
        cores = CoreSet(sim, 2)
        snap = cores.snapshot()
        cores.charge(50.0, lambda _: None, None)
        sim.run_until(100.0)
        assert cores.utilization(snap) == pytest.approx(0.25)

    def test_spin_counts_toward_utilization(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        snap = cores.snapshot()
        cores.account_spin(30.0)
        sim.run_until(100.0)
        assert cores.utilization(snap) == pytest.approx(0.3)

    def test_utilization_capped_at_one(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        snap = cores.snapshot()
        cores.account_spin(1_000.0)
        sim.run_until(100.0)
        assert cores.utilization(snap) == 1.0

    def test_saturation_probe(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        assert not cores.is_saturated()
        for _ in range(6):
            cores.charge(10.0, lambda _: None, None)
        assert cores.is_saturated()
        sim.run()
        assert not cores.is_saturated()


class TestChargeContract:
    """``charge(cost_us, fn, arg)``: ``fn(arg)`` once the work is done."""

    @pytest.mark.parametrize("cost_us", [0.0, -1.0])
    def test_free_work_runs_fn_synchronously(self, cost_us):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        seen = []
        cores.charge(cost_us, seen.append, "req")
        assert seen == ["req"]
        assert sim.pending_events() == 0

    def test_each_core_set_serves_fifo(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        seen = []
        for arg, cost in enumerate((4.0, 1.0, 2.0)):
            cores.charge(cost, lambda arg: seen.append((arg, sim.now)), arg)
        sim.run()
        assert seen == [(0, 4.0), (1, 5.0), (2, 7.0)]

    def test_core_count_is_respected(self):
        sim = Simulator()
        cores = CoreSet(sim, 3)
        seen = []
        for arg in range(7):
            cores.charge(10.0, lambda arg: seen.append((arg, sim.now)), arg)
        assert cores.server.busy == 3
        assert cores.server.queue_depth == 4
        sim.run()
        assert [t for _, t in seen] == [10.0] * 3 + [20.0] * 3 + [30.0]
        assert [arg for arg, _ in seen] == list(range(7))

    def test_release_drops_the_queued_work(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        seen = []
        for arg in range(4):
            cores.charge(5.0, seen.append, arg)
        cores.server.release()
        sim.run()
        assert seen == [0]


class TestAccounting:
    def test_report_counts_window_ios(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        acct = CpuAccounting(cores, profile_for_knob("none"))
        for _ in range(3):
            cores.charge(10.0, lambda _: acct.on_io_complete(), None)
        sim.run_until(100.0)
        report = acct.report()
        assert report.ios == 3
        assert report.utilization == pytest.approx(0.3)
        assert report.cycles_per_io == pytest.approx(10.0 * CYCLES_PER_US)

    def test_begin_window_resets(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        acct = CpuAccounting(cores, profile_for_knob("none"))
        cores.charge(10.0, lambda _: acct.on_io_complete(), None)
        sim.run_until(50.0)
        acct.begin_window()
        report = acct.report()
        assert report.ios == 0
        assert report.busy_us == pytest.approx(0.0)

    def test_empty_report_has_zero_rates(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        acct = CpuAccounting(cores, profile_for_knob("none"))
        report = acct.report()
        assert report.ios == 0
        assert report.cycles_per_io == 0.0
        assert report.ctx_switches_per_io == 0.0

    def test_report_renders(self):
        sim = Simulator()
        cores = CoreSet(sim, 1)
        acct = CpuAccounting(cores, profile_for_knob("bfq"))
        assert "cpu util" in str(acct.report())
