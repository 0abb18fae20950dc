"""The paper's ten observations (O1-O10) as shape assertions.

Each test runs a reduced version of the corresponding experiment and
asserts the *relationship* the paper reports (who wins, roughly by what
factor) -- not absolute numbers. Runs are sized to keep the suite under
a couple of minutes.
"""

import pytest

from repro.core.d1_overhead import peak_bandwidth, run_bandwidth_scaling, run_lc_overhead
from repro.core.d2_fairness import (
    run_mixed_workload_fairness,
    run_uniform_fairness,
    run_weighted_fairness,
)
from repro.core.d3_tradeoffs import sweep_knob, unprotected_baseline
from repro.core.d4_bursts import burst_knobs, measure_burst_response
from repro.core.pareto import distinct_clusters, pareto_front
from repro.ssd.presets import samsung_980pro_like


@pytest.fixture(scope="module")
def lc_study():
    return run_lc_overhead(
        app_counts=(1, 16), duration_s=0.25, warmup_s=0.08, collect_cdf_for=(16,)
    )


@pytest.fixture(scope="module")
def bw_points():
    return run_bandwidth_scaling(
        app_counts=(8, 17),
        device_counts=(1,),
        duration_s=0.2,
        warmup_s=0.06,
        device_scale=8.0,
    )


class TestO1LatencyOverhead:
    def test_schedulers_add_latency_at_one_app(self, lc_study):
        none = lc_study.p99("none", 1)
        assert lc_study.p99("mq-deadline", 1) > none
        assert lc_study.p99("bfq", 1) > lc_study.p99("mq-deadline", 1)

    def test_iocost_latency_penalty_past_saturation(self, lc_study):
        none = lc_study.p99("none", 16)
        iocost = lc_study.p99("io.cost", 16)
        # Paper: +48%. Accept a broad band around it.
        assert 1.2 < iocost / none < 1.9

    def test_iomax_iolatency_negligible_overhead(self, lc_study):
        none = lc_study.p99("none", 16)
        assert lc_study.p99("io.max", 16) < none * 1.1
        assert lc_study.p99("io.latency", 16) < none * 1.1

    def test_bfq_saturates_cpu_first(self, lc_study):
        assert lc_study.utilization("bfq", 16) >= 0.99
        # And it was already (near) saturated while none was not, at the
        # measured point below 16 apps; proxy: higher util everywhere.
        assert lc_study.utilization("bfq", 1) > lc_study.utilization("none", 1)

    def test_cycles_per_io_ordering(self, lc_study):
        by_knob = {
            p.knob: p.cycles_per_io for p in lc_study.points if p.n_apps == 16
        }
        assert by_knob["bfq"] > by_knob["mq-deadline"] > by_knob["none"]

    def test_ctx_switches_per_io_ordering(self, lc_study):
        by_knob = {
            p.knob: p.ctx_switches_per_io for p in lc_study.points if p.n_apps == 1
        }
        assert by_knob["mq-deadline"] > by_knob["none"]
        assert by_knob["bfq"] > by_knob["none"]

    def test_cdf_collected(self, lc_study):
        values, probs = lc_study.cdfs[("none", 16)]
        assert values == sorted(values)
        assert probs[-1] == 1.0


class TestO2BandwidthScalability:
    def test_schedulers_cannot_saturate_nvme(self, bw_points):
        none = peak_bandwidth(bw_points, "none", 1)
        mqdl = peak_bandwidth(bw_points, "mq-deadline", 1)
        bfq = peak_bandwidth(bw_points, "bfq", 1)
        # Paper: -38% and -77%.
        assert mqdl < 0.75 * none
        assert bfq < 0.35 * none
        assert bfq < mqdl

    def test_throttlers_saturate_nvme(self, bw_points):
        none = peak_bandwidth(bw_points, "none", 1)
        for knob in ("io.max", "io.latency", "io.cost"):
            assert peak_bandwidth(bw_points, knob, 1) > 0.9 * none


class TestO3O4Fairness:
    def test_uniform_fairness_high_for_all_before_saturation(self):
        points = run_uniform_fairness(
            group_counts=(4,), duration_s=0.4, warmup_s=0.12
        )
        for point in points:
            assert point.fairness > 0.98, point.knob

    def test_schedulers_lose_fairness_past_cpu_saturation(self):
        points = {
            p.knob: p.fairness
            for p in run_uniform_fairness(
                group_counts=(16,), duration_s=0.4, warmup_s=0.12
            )
        }
        assert points["mq-deadline"] < 0.9
        assert points["bfq"] < points["none"]
        assert points["io.cost"] > 0.95
        assert points["io.max"] > 0.95

    def test_weighted_fairness_winners_and_losers(self):
        points = {
            p.knob: p.fairness
            for p in run_weighted_fairness(
                group_counts=(2,),
                knob_names=("none", "mq-deadline", "bfq", "io.max", "io.cost"),
                duration_s=0.4,
                warmup_s=0.12,
            )
        }
        # O4: io.cost, io.max and BFQ enable weighted fairness.
        assert points["io.cost"] > 0.95
        assert points["io.max"] > 0.95
        assert points["bfq"] > 0.95
        # MQ-DL classes are a terrible weight approximation.
        assert points["mq-deadline"] < points["none"]


class TestO5MixedWorkloadFairness:
    def test_mixed_sizes(self):
        points = {
            p.knob: p
            for p in run_mixed_workload_fairness(
                "sizes", duration_s=0.4, warmup_s=0.12
            )
        }
        # io.cost and io.max keep fairness; none/mq-dl/io.latency do not.
        assert points["io.cost"].fairness > 0.9
        assert points["io.max"].fairness > 0.9
        assert points["none"].fairness < 0.6
        assert points["io.latency"].fairness < 0.6
        # With no control, almost all bandwidth goes to large requests.
        none = points["none"].per_group_mib_s
        assert none["/tenants/large"] > 10 * none["/tenants/small"]

    def test_mixed_patterns_fair_for_all(self):
        points = run_mixed_workload_fairness(
            "patterns", duration_s=0.4, warmup_s=0.12
        )
        for point in points:
            assert point.fairness > 0.9, point.knob

    def test_read_write_interference_collapses_bandwidth(self):
        rw = run_mixed_workload_fairness(
            "readwrite", knob_names=("none", "io.cost"), duration_s=0.5, warmup_s=0.15
        )
        by_knob = {p.knob: p for p in rw}
        reads_only = run_mixed_workload_fairness(
            "sizes", knob_names=("none",), duration_s=0.4, warmup_s=0.12
        )[0]
        # Paper: < 0.6 GiB/s vs ~3 GiB/s for read-only workloads.
        assert (
            by_knob["none"].aggregate_bandwidth_gib_s
            < 0.5 * reads_only.aggregate_bandwidth_gib_s
        )

    def test_iocost_prefers_reads_in_mixed_rw(self):
        points = {
            p.knob: p
            for p in run_mixed_workload_fairness(
                "readwrite", knob_names=("io.cost",), duration_s=0.5, warmup_s=0.15
            )
        }
        iocost = points["io.cost"]
        readers = iocost.per_group_mib_s["/tenants/readers"]
        writers = iocost.per_group_mib_s["/tenants/writers"]
        # O5: the write-cost asymmetry makes io.cost favour readers.
        assert readers > writers
        assert iocost.fairness < 0.99


@pytest.fixture(scope="module")
def batch_baseline():
    return unprotected_baseline("batch", duration_s=0.3, warmup_s=0.1)


class TestO6SchedulersTradeoffs:
    def test_mqdl_is_coarse_grained(self, batch_baseline):
        points = sweep_knob("mq-deadline", "batch", duration_s=0.3, warmup_s=0.1)
        front = pareto_front(points)
        clusters = distinct_clusters(
            front,
            x_resolution=batch_baseline.aggregate_gib_s * 0.05,
            y_resolution=max(p.priority_metric for p in points) * 0.08,
        )
        assert clusters <= 3  # paper: "coarse-grained (3 options)"

    def test_bfq_cannot_prioritize_bandwidth(self):
        points = sweep_knob(
            "bfq", "batch", duration_s=0.3, warmup_s=0.1, sweep_points=5
        )
        # Across weights 250..1000 the priority bandwidth barely moves.
        metrics = [
            p.priority_metric for p in points if p.config_label != "w=1"
        ]
        assert max(metrics) - min(metrics) < 0.3 * max(metrics) + 1e-9


def _target_us(point) -> float:
    """The io.latency target of a sweep point, from its ``target=<n>us`` label."""
    return float(point.config_label.removeprefix("target=").removesuffix("us"))


class TestO7IoLatencyTradeoffs:
    """io.latency throttles BE apps by queue depth, blind to request size
    and direction: it protects an LC app from 4 KiB random reads, but
    256 KiB reads or writes keep hurting it at any target."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        # Loose and tight target per BE variant. The O6/O8 sizing of
        # 0.3 s never reaches a 500 ms io.latency window, so every target
        # would measure the same p99. Each variant is judged against its
        # own loose point: at this scale the unprotected 256 KiB baseline
        # completes no LC I/O at all.
        return {
            variant: sweep_knob(
                "io.latency",
                "lc",
                be_variant=variant,
                device_scale=24.0,
                duration_s=5.0,
                warmup_s=1.75,
                sweep_points=2,
                baseline_p99_us=1300.0,
            )
            for variant in ("rand-4k", "rand-256k", "rand-4k-write")
        }

    def test_tight_target_buys_lc_latency_with_bandwidth(self, sweeps):
        tight, loose = sorted(sweeps["rand-4k"], key=_target_us)
        assert tight.priority_metric < loose.priority_metric / 3
        assert tight.aggregate_gib_s < 0.6 * loose.aggregate_gib_s

    @pytest.mark.parametrize("variant", ["rand-256k", "rand-4k-write"])
    def test_large_or_write_be_apps_defeat_any_target(self, sweeps, variant):
        tight, loose = sorted(sweeps[variant], key=_target_us)
        assert tight.priority_metric == pytest.approx(loose.priority_metric, rel=0.1)
        assert tight.priority_metric > 10 * _target_us(tight)


class TestO8IoMaxTradeoffs:
    def test_iomax_has_a_real_tradeoff_curve(self, batch_baseline):
        points = sweep_knob("io.max", "batch", duration_s=0.3, warmup_s=0.1)
        front = pareto_front(points)
        assert len(front) >= 4
        # Tight BE caps boost the priority app at utilization cost.
        tight = min(front, key=lambda p: p.aggregate_gib_s)
        loose = max(front, key=lambda p: p.aggregate_gib_s)
        assert tight.priority_metric > 1.5 * max(loose.priority_metric, 1.0)
        assert tight.aggregate_gib_s < loose.aggregate_gib_s

    def test_iomax_not_work_conserving(self, batch_baseline):
        points = sweep_knob("io.max", "batch", duration_s=0.3, warmup_s=0.1)
        tight = min(points, key=lambda p: p.aggregate_gib_s)
        assert tight.aggregate_gib_s < 0.6 * batch_baseline.aggregate_gib_s


class TestO9IoCostTradeoffs:
    def test_iocost_protects_priority_across_utilization(self):
        points = sweep_knob("io.cost", "batch", duration_s=0.3, warmup_s=0.1)
        metrics = [p.priority_metric for p in points]
        aggregates = [p.aggregate_gib_s for p in points]
        # Utilization dial spans a wide range...
        assert max(aggregates) > 2.5 * min(aggregates)
        # ...while the priority app keeps most of its bandwidth except at
        # the most extreme throttle point.
        assert sorted(metrics)[1] > 0.5 * max(metrics)


class TestO10Bursts:
    @pytest.fixture(scope="class")
    def responses(self):
        ssd = samsung_980pro_like()
        scaled = ssd.scaled(24.0)
        knobs = burst_knobs(scaled, "batch", lc_target_us=2000.0)
        out = {}
        for name in ("io.max", "io.cost", "io.latency"):
            out[name] = measure_burst_response(
                knobs[name],
                "batch",
                burst_start_s=1.5,
                duration_s=7.0,
                device_scale=24.0,
                bucket_ms=50.0,
            )
        return out

    def test_fast_knobs_respond_in_milliseconds(self, responses):
        for name in ("io.max", "io.cost"):
            assert responses[name].reached, name
            assert responses[name].response_ms <= 200.0, name

    def test_iolatency_takes_seconds(self, responses):
        response = responses["io.latency"]
        assert response.response_ms is None or response.response_ms > 1000.0
