"""Unit tests for job specs, the app driver, and arrival timelines."""

import math
import random

import pytest

from repro.iorequest import KIB, OpType, Pattern
from repro.sim.engine import Simulator
from repro.workloads.apps import batch_app, be_app, lc_app
from repro.workloads.generator import App
from repro.workloads.patterns import (
    churn_windows,
    diurnal_phases,
    flash_crowd_phases,
)
from repro.workloads.spec import (
    ActivityWindow,
    ArrivalPhase,
    JobSpec,
)


class TestActivityWindow:
    def test_valid(self):
        window = ActivityWindow(0.0, 100.0)
        assert window.stop_us == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            ActivityWindow(-1.0)

    def test_stop_before_start_rejected(self):
        with pytest.raises(ValueError):
            ActivityWindow(100.0, 50.0)

    def test_open_ended_by_default(self):
        import math

        assert math.isinf(ActivityWindow(0.0).stop_us)


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(name="j", cgroup_path="/g")
        assert spec.size == 4 * KIB
        assert spec.is_read_only
        assert spec.active_at(1e9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"size": 0},
            {"read_fraction": 1.5},
            {"read_fraction": -0.1},
            {"queue_depth": 0},
            {"rate_limit_bps": 0.0},
            {"windows": ()},
        ],
    )
    def test_validation(self, kwargs):
        params = dict(name="j", cgroup_path="/g")
        params.update(kwargs)
        with pytest.raises(ValueError):
            JobSpec(**params)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                cgroup_path="/g",
                windows=(ActivityWindow(0.0, 100.0), ActivityWindow(50.0, 200.0)),
            )

    def test_active_at_respects_windows(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            windows=(ActivityWindow(10.0, 20.0), ActivityWindow(30.0, 40.0)),
        )
        assert not spec.active_at(5.0)
        assert spec.active_at(15.0)
        assert not spec.active_at(25.0)
        assert spec.active_at(35.0)
        assert not spec.active_at(45.0)


class TestAppPresets:
    def test_lc_app_shape(self):
        spec = lc_app("l", "/g")
        assert spec.queue_depth == 1
        assert spec.size == 4 * KIB
        assert spec.app_class == "lc"

    def test_batch_app_shape(self):
        spec = batch_app("b", "/g")
        assert spec.queue_depth == 256
        assert spec.app_class == "batch"

    def test_be_app_write_variant(self):
        spec = be_app("w", "/g", read_fraction=0.0)
        assert not spec.is_read_only
        assert spec.app_class == "be"


class TestAppDriver:
    @staticmethod
    def run_app(spec, duration_us, complete_after_us=10.0):
        """Drive an app against an instant-completion fake device."""
        sim = Simulator()
        submitted = []

        app_holder = []

        def submit(req):
            submitted.append((sim.now, req))
            sim.schedule(complete_after_us, lambda: app_holder[0].on_complete(req))

        app = App(sim, spec, submit, random.Random(0))
        app_holder.append(app)
        app.start()
        sim.run_until(duration_us)
        return submitted, app

    def test_keeps_queue_depth_outstanding(self):
        spec = JobSpec(name="j", cgroup_path="/g", queue_depth=4)
        submitted, app = self.run_app(spec, duration_us=5.0)
        assert len(submitted) == 4  # initial fill, none completed yet

    def test_closed_loop_reissues_on_completion(self):
        spec = JobSpec(name="j", cgroup_path="/g", queue_depth=1)
        submitted, _ = self.run_app(spec, duration_us=100.0)
        # One completion every 10us -> ~10 sequential requests.
        assert 9 <= len(submitted) <= 11

    def test_stops_issuing_after_window(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            queue_depth=1,
            windows=(ActivityWindow(0.0, 50.0),),
        )
        submitted, app = self.run_app(spec, duration_us=500.0)
        assert all(t < 50.0 for t, _ in submitted)
        assert app.outstanding == 0

    def test_starts_at_window_start(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            queue_depth=1,
            windows=(ActivityWindow(200.0, 400.0),),
        )
        submitted, _ = self.run_app(spec, duration_us=300.0)
        assert submitted and submitted[0][0] == 200.0

    def test_read_fraction_mixes_ops(self):
        spec = JobSpec(name="j", cgroup_path="/g", queue_depth=1, read_fraction=0.5)
        submitted, _ = self.run_app(spec, duration_us=10_000.0)
        ops = {req.op for _, req in submitted}
        assert ops == {OpType.READ, OpType.WRITE}

    def test_read_only_never_writes(self):
        spec = JobSpec(name="j", cgroup_path="/g", queue_depth=2, read_fraction=1.0)
        submitted, _ = self.run_app(spec, duration_us=1_000.0)
        assert all(req.op == OpType.READ for _, req in submitted)

    def test_rate_limit_bounds_issue_rate(self):
        # 4 KiB at 4 MiB/s -> ~1 request per ms.
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            queue_depth=8,
            rate_limit_bps=4.0 * 1024 * 1024,
        )
        submitted, _ = self.run_app(spec, duration_us=20_000.0, complete_after_us=1.0)
        assert len(submitted) <= 25  # ~20 expected

    def test_phased_single_phase_reproduces_constant_rate(self):
        """A constant-rate job runs as one phase per activity window, so
        one open-ended phase must draw the identical arrival sequence
        (same RNG stream, same chaining)."""
        constant = JobSpec(name="j", cgroup_path="/g", arrival_rate_iops=10_000.0)
        phased = JobSpec(
            name="j",
            cgroup_path="/g",
            arrival_phases=(ArrivalPhase(0.0, math.inf, 10_000.0),),
        )
        a, _ = self.run_app(constant, duration_us=20_000.0)
        b, _ = self.run_app(phased, duration_us=20_000.0)
        assert [t for t, _ in a] == [t for t, _ in b]
        assert len(a) > 100  # a real sample, not a vacuous match

    def test_phase_boundary_changes_the_rate(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            arrival_phases=(
                ArrivalPhase(0.0, 50_000.0, 1_000.0),
                ArrivalPhase(50_000.0, 100_000.0, 10_000.0),
            ),
        )
        submitted, _ = self.run_app(spec, duration_us=100_000.0)
        before = sum(1 for t, _ in submitted if t < 50_000.0)
        after = len(submitted) - before
        # ~50 arrivals before the boundary, ~500 after.
        assert before < 110 and after > 300

    def test_no_arrivals_in_a_phase_gap(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            arrival_phases=(
                ArrivalPhase(0.0, 30_000.0, 5_000.0),
                ArrivalPhase(60_000.0, 90_000.0, 5_000.0),
            ),
        )
        submitted, _ = self.run_app(spec, duration_us=90_000.0)
        assert submitted
        assert not any(30_000.0 <= t < 60_000.0 for t, _ in submitted)

    def test_request_metadata(self):
        spec = JobSpec(name="j", cgroup_path="/g", pattern=Pattern.SEQUENTIAL)
        sim = Simulator()
        seen = []
        app = App(sim, spec, seen.append, random.Random(0), device_index=3, prio_class=2)
        app.start()
        sim.run_until(1.0)
        req = seen[0]
        assert req.app_name == "j"
        assert req.cgroup_path == "/g"
        assert req.device_index == 3
        assert req.prio_class == 2
        assert req.pattern == Pattern.SEQUENTIAL


class TestArrivalPhase:
    def test_valid(self):
        phase = ArrivalPhase(0.0, 100.0, 500.0)
        assert phase.rate_iops == 500.0

    def test_open_ended_stop_allowed(self):
        assert math.isinf(ArrivalPhase(0.0, math.inf, 500.0).stop_us)

    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, 100.0, 500.0),  # negative start
            (100.0, 50.0, 500.0),  # stop before start
            (0.0, 0.0, 500.0),  # empty interval
            (0.0, 100.0, 0.0),  # zero rate
            (0.0, 100.0, -5.0),  # negative rate
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            ArrivalPhase(*args)


class TestPhasedJobSpec:
    def phases(self):
        return (ArrivalPhase(0.0, 50.0, 100.0), ArrivalPhase(50.0, 100.0, 200.0))

    def test_phases_and_constant_rate_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                cgroup_path="/g",
                arrival_rate_iops=100.0,
                arrival_phases=self.phases(),
            )

    def test_phased_job_cannot_rate_limit(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                cgroup_path="/g",
                rate_limit_bps=1e6,
                arrival_phases=self.phases(),
            )

    def test_empty_phase_tuple_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(name="j", cgroup_path="/g", arrival_phases=())

    def test_overlapping_phases_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                cgroup_path="/g",
                arrival_phases=(
                    ArrivalPhase(0.0, 60.0, 100.0),
                    ArrivalPhase(50.0, 100.0, 100.0),
                ),
            )

    def test_unsorted_phases_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="j",
                cgroup_path="/g",
                arrival_phases=(
                    ArrivalPhase(50.0, 100.0, 100.0),
                    ArrivalPhase(0.0, 50.0, 100.0),
                ),
            )

    def test_gap_between_phases_allowed(self):
        spec = JobSpec(
            name="j",
            cgroup_path="/g",
            arrival_phases=(
                ArrivalPhase(0.0, 40.0, 100.0),
                ArrivalPhase(60.0, 100.0, 100.0),
            ),
        )
        assert len(spec.arrival_phases) == 2


class TestDiurnalPhases:
    def test_shape_and_contiguity(self):
        phases = diurnal_phases(100.0, 500.0, 80_000.0, steps=8)
        assert len(phases) == 8
        assert phases[0].start_us == 0.0
        assert phases[-1].stop_us == 80_000.0
        for earlier, later in zip(phases, phases[1:]):
            assert later.start_us == earlier.stop_us

    def test_rates_bounded_by_base_and_peak(self):
        phases = diurnal_phases(100.0, 500.0, 80_000.0, steps=16)
        rates = [p.rate_iops for p in phases]
        assert all(100.0 <= r <= 500.0 for r in rates)
        # Starts/ends near base, peaks mid-period.
        assert rates[0] < rates[len(rates) // 2]
        assert max(rates) == pytest.approx(500.0, rel=0.05)

    def test_raised_cosine_is_symmetric(self):
        phases = diurnal_phases(100.0, 500.0, 80_000.0, steps=8)
        rates = [p.rate_iops for p in phases]
        for left, right in zip(rates, reversed(rates)):
            assert left == pytest.approx(right)

    def test_cycles_repeat_the_ramp(self):
        one = diurnal_phases(100.0, 500.0, 40_000.0, steps=4, cycles=1)
        two = diurnal_phases(100.0, 500.0, 40_000.0, steps=4, cycles=2)
        assert len(two) == 2 * len(one)
        assert [p.rate_iops for p in two[:4]] == [p.rate_iops for p in two[4:]]
        assert two[4].start_us == 40_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_phases(500.0, 100.0, 80_000.0)  # peak below base
        with pytest.raises(ValueError):
            diurnal_phases(100.0, 500.0, 80_000.0, steps=1)
        with pytest.raises(ValueError):
            diurnal_phases(100.0, 500.0, 80_000.0, cycles=0)


class TestFlashCrowdPhases:
    def test_before_during_after(self):
        phases = flash_crowd_phases(100.0, 1_000.0, 30_000.0, 20_000.0, 100_000.0)
        assert [p.rate_iops for p in phases] == [100.0, 1_000.0, 100.0]
        assert phases[0].start_us == 0.0
        assert phases[1].start_us == 30_000.0
        assert phases[1].stop_us == 50_000.0
        assert phases[2].stop_us == 100_000.0
        for earlier, later in zip(phases, phases[1:]):
            assert later.start_us == earlier.stop_us

    def test_open_ended_tail_by_default(self):
        phases = flash_crowd_phases(100.0, 1_000.0, 30_000.0, 20_000.0)
        assert math.isinf(phases[-1].stop_us)

    def test_crowd_must_land_inside_the_run(self):
        with pytest.raises(ValueError):
            flash_crowd_phases(100.0, 1_000.0, 0.0, 20_000.0, 100_000.0)
        with pytest.raises(ValueError):
            flash_crowd_phases(100.0, 1_000.0, 90_000.0, 20_000.0, 100_000.0)


class TestChurnWindows:
    def test_staggered_slots(self):
        duration = 100_000.0
        starts = []
        for i in range(5):
            (window,) = churn_windows(i, 5, duration, overlap=2.0)
            starts.append(window.start_us)
            assert window.stop_us <= duration
        assert starts == [0.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0]

    def test_overlap_keeps_roughly_that_many_tenants_active(self):
        duration = 100_000.0
        windows = [churn_windows(i, 5, duration, overlap=2.0)[0] for i in range(5)]
        mid = duration / 2
        active = sum(1 for w in windows if w.start_us <= mid < w.stop_us)
        assert active == 2

    def test_last_tenant_clamped_to_run_end(self):
        (window,) = churn_windows(4, 5, 100_000.0, overlap=3.0)
        assert window.stop_us == 100_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            churn_windows(5, 5, 100_000.0)
        with pytest.raises(ValueError):
            churn_windows(0, 5, 0.0)
        with pytest.raises(ValueError):
            churn_windows(0, 5, 100_000.0, overlap=0.0)
