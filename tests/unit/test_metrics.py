"""Unit tests for the metrics layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iorequest import IoRequest, MIB, OpType, Pattern
from repro.metrics.collector import CompletionLog, MetricsCollector, cgroup_stats, total_bytes
from repro.metrics.fairness import jain_index, weighted_jain_index
from repro.metrics.latency import cdf, percentile, summarize_latencies
from repro.metrics.timeseries import bandwidth_series, time_to_reach


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_single_sample(self):
        assert percentile([42.0], 99.0) == 42.0

    def test_median_of_odd_set(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 9.0

    def test_p99_of_uniform_ramp(self):
        data = list(range(101))
        assert percentile(data, 99.0) == pytest.approx(99.0)


class TestCdf:
    def test_monotone_nondecreasing(self):
        values, probs = cdf([5.0, 1.0, 3.0, 2.0, 4.0], points=50)
        assert values == sorted(values)
        assert probs[0] == 0.0 and probs[-1] == 1.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            cdf([1.0], points=1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cdf([])


class TestSummary:
    def test_summary_fields(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean_us == pytest.approx(2.5)
        assert summary.max_us == 4.0
        assert summary.p50_us == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_latencies([])

    def test_str_render(self):
        assert "p99" in str(summarize_latencies([1.0]))


class TestJain:
    def test_equal_allocations_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_weighted_ideal_split_scores_one(self):
        # Allocations exactly proportional to weights.
        assert weighted_jain_index([100.0, 200.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_weighted_equal_split_with_unequal_weights_penalized(self):
        fair = weighted_jain_index([150.0, 150.0], [1.0, 2.0])
        assert fair < 1.0

    def test_weighted_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_jain_index([1.0], [1.0, 2.0])

    def test_weighted_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_jain_index([1.0], [0.0])


class TestBandwidthSeries:
    def test_bucketization(self):
        times = [0.5e6, 0.6e6, 1.5e6]
        sizes = [MIB, MIB, 2 * MIB]
        xs, ys = bandwidth_series(times, sizes, 0.0, 2e6, bucket_us=1e6)
        assert xs == [0.0, 1.0]
        assert ys == [2.0, 2.0]

    def test_out_of_range_completions_ignored(self):
        xs, ys = bandwidth_series([5e6], [MIB], 0.0, 2e6, bucket_us=1e6)
        assert sum(ys) == 0.0

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            bandwidth_series([], [], 0.0, 0.0)
        with pytest.raises(ValueError):
            bandwidth_series([], [], 0.0, 1e6, bucket_us=0.0)
        with pytest.raises(ValueError):
            bandwidth_series([], [], 0.0, 0.5, bucket_us=1e6)

    def test_time_to_reach(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [0.0, 5.0, 10.0, 10.0]
        assert time_to_reach(xs, ys, threshold=10.0) == 2.0
        assert time_to_reach(xs, ys, threshold=10.0, after_s=2.5) == 3.0
        assert time_to_reach(xs, ys, threshold=99.0) is None


def _completed_request(app, cgroup, t_us, latency_us, size, op=OpType.READ):
    req = IoRequest(app, cgroup, op, Pattern.RANDOM, size)
    req.submit_time = t_us - latency_us
    req.complete_time = t_us
    return req


class TestCollector:
    def test_register_twice_rejected(self):
        collector = MetricsCollector()
        collector.register_app("a", "/g")
        with pytest.raises(ValueError):
            collector.register_app("a", "/g")

    def test_window_stats(self):
        collector = MetricsCollector()
        collector.register_app("a", "/g")
        collector.on_complete(_completed_request("a", "/g", 100.0, 10.0, 4096))
        collector.on_complete(_completed_request("a", "/g", 200.0, 20.0, 4096))
        collector.on_complete(_completed_request("a", "/g", 900.0, 30.0, 4096))
        stats = collector.logs["a"].stats(0.0, 500.0)
        assert stats.ios == 2
        assert stats.bytes == 8192
        assert stats.latency.count == 2

    def test_empty_window_has_no_latency(self):
        collector = MetricsCollector()
        collector.register_app("a", "/g")
        stats = collector.logs["a"].stats(0.0, 100.0)
        assert stats.ios == 0
        assert stats.latency is None
        assert stats.bandwidth_mib_s == 0.0

    def test_cgroup_aggregation(self):
        collector = MetricsCollector()
        collector.register_app("a1", "/g")
        collector.register_app("a2", "/g")
        collector.register_app("b", "/h")
        collector.on_complete(_completed_request("a1", "/g", 10.0, 1.0, 100))
        collector.on_complete(_completed_request("a2", "/g", 20.0, 1.0, 100))
        collector.on_complete(_completed_request("b", "/h", 30.0, 1.0, 100))
        groups = cgroup_stats(collector.logs.values(), 0.0, 100.0)
        assert groups["/g"].ios == 2
        assert groups["/g"].bytes == 200
        assert groups["/h"].ios == 1

    def test_total_bytes(self):
        collector = MetricsCollector()
        collector.register_app("a", "/g")
        collector.on_complete(_completed_request("a", "/g", 10.0, 1.0, 100))
        assert total_bytes(collector.logs.values(), 0.0, 100.0) == 100

    def test_bandwidth_computation(self):
        collector = MetricsCollector()
        collector.register_app("a", "/g")
        collector.on_complete(_completed_request("a", "/g", 10.0, 1.0, MIB))
        stats = collector.logs["a"].stats(0.0, 1e6)  # 1 MiB in 1 s
        assert stats.bandwidth_mib_s == pytest.approx(1.0)
        assert stats.iops == pytest.approx(1.0)


def _loop_window(logs, t_start, t_end):
    """Reference: the per-completion window walk the collector used to do.

    Returns ``(ios, bytes, summary fields or None)`` over the pooled logs,
    with the mean added left to right over the sorted samples and the
    percentiles interpolated as ``percentile`` documents.
    """
    ios, total, window = 0, 0, []
    for log in logs:
        for time, latency, size in zip(log.times, log.latencies, log.sizes):
            if t_start <= time < t_end:
                ios += 1
                total += size
                window.append(latency)
    if not window:
        return ios, total, None
    ordered = sorted(window)
    running = 0.0
    for value in ordered:
        running += value

    def ranked(pct):
        rank = pct / 100.0 * (len(ordered) - 1)
        low, high = math.floor(rank), math.ceil(rank)
        if low == high:
            return ordered[low]
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    summary = (len(ordered), running / len(ordered), ranked(50.0), ranked(90.0),
               ranked(95.0), ranked(99.0), ordered[-1])
    return ios, total, summary


def _fields(stats):
    latency = stats.latency
    digest = None if latency is None else (
        latency.count, latency.mean_us, latency.p50_us, latency.p90_us,
        latency.p95_us, latency.p99_us, latency.max_us,
    )
    return stats.ios, stats.bytes, digest


_completions = st.lists(
    st.tuples(
        st.floats(0.0, 1000.0),
        st.floats(0.1, 1e4),
        st.integers(1, 1 << 20),
        st.sampled_from([int(OpType.READ), int(OpType.WRITE)]),
    ),
    max_size=60,
)


def _log(name, group, rows):
    rows = sorted(rows, key=lambda row: row[0])  # completion times never decrease
    return CompletionLog(name, group, *(list(column) for column in zip(*rows)) if rows else ())


class TestCompletionLogMatchesTheLoop:
    """Bisected windows give exactly what walking every completion gave."""

    @settings(max_examples=80, deadline=None)
    @given(_completions, _completions, st.floats(-10.0, 1010.0), st.floats(0.0, 1100.0))
    def test_app_and_pooled_group_windows(self, rows_a, rows_b, t_start, width):
        t_end = t_start + width
        live = [_log("a", "/g", rows_a), _log("b", "/g", rows_b)]
        for logs in (live, [log.frozen() for log in live]):
            for log in logs:
                assert _fields(log.stats(t_start, t_end)) == _loop_window([log], t_start, t_end)
            (group,) = cgroup_stats(logs, t_start, t_end).values()
            assert _fields(group) == _loop_window(live, t_start, t_end)
            assert total_bytes(logs, t_start, t_end) == group.bytes
