"""Measurement layer: the simulation's fio/sar/perf output.

Latency percentiles and CDFs, bandwidth aggregation and time series,
Jain's (weighted) fairness index, and per-app completion recording over
measurement windows.
"""

from repro.metrics.latency import LatencySummary, cdf, percentile, summarize_latencies
from repro.metrics.fairness import jain_index, weighted_jain_index
from repro.metrics.timeseries import bandwidth_series
from repro.metrics.collector import AppWindowStats, CompletionLog, MetricsCollector

__all__ = [
    "percentile",
    "cdf",
    "LatencySummary",
    "summarize_latencies",
    "jain_index",
    "weighted_jain_index",
    "bandwidth_series",
    "MetricsCollector",
    "AppWindowStats",
    "CompletionLog",
]
