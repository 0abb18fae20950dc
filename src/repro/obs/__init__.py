"""repro.obs: request-lifecycle tracing and periodic stack sampling.

The simulation's ``blktrace`` + ``io.stat``: opt-in per-request lifecycle
spans with latency attribution (held / queued / service), a sim-clock
periodic sampler snapshotting controller internals, and JSONL / CSV /
Chrome-trace exporters. Enable by passing ``trace=TraceConfig()`` to a
:class:`~repro.core.config.Scenario`; read the artifact back from
``ScenarioResult.trace``.
"""

from repro.obs.config import TraceConfig
from repro.obs.export import (
    Trace,
    read_jsonl,
    read_samples_csv,
    read_spans_csv,
    write_chrome_trace,
    write_jsonl,
    write_records_jsonl,
    write_samples_csv,
    write_spans_csv,
)
from repro.obs.sampler import StackSampler
from repro.obs.span import LatencyAttribution, RequestSpan, RequestTracer

__all__ = [
    "TraceConfig",
    "Trace",
    "RequestSpan",
    "RequestTracer",
    "LatencyAttribution",
    "StackSampler",
    "write_jsonl",
    "write_records_jsonl",
    "read_jsonl",
    "write_spans_csv",
    "read_spans_csv",
    "write_samples_csv",
    "read_samples_csv",
    "write_chrome_trace",
]
