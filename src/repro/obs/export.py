"""Trace artifact and exporters (JSONL, CSV, Chrome Trace Event Format).

A traced run produces a :class:`Trace`: request spans, sampler rows and
run metadata. Three serializations cover the common consumers:

* **JSONL** — one self-describing record per line (``type`` field:
  ``meta`` / ``span`` / ``sample``); the lossless interchange format,
  round-trippable via :func:`read_jsonl`. The tune and ctl decision
  traces are JSONL too, written by :func:`write_records_jsonl`.
* **CSV** — two flat tables (spans, samples) for pandas/spreadsheets.
* **Chrome Trace Event Format** — a browsable timeline for Perfetto or
  ``chrome://tracing``: per-request slices on per-app lanes split into
  held/queued/service phases, plus counter tracks for every sampled
  series. Timestamps are emitted in microseconds, the format's native
  unit (and the simulator's clock unit, conveniently).
"""

from __future__ import annotations

import csv
import heapq
import json
from dataclasses import dataclass, field

from repro.obs.span import LatencyAttribution, RequestSpan

#: Column order of the spans CSV (matches RequestSpan.as_dict()).
SPAN_FIELDS = (
    "app",
    "cgroup",
    "op",
    "pattern",
    "size",
    "device_index",
    "submit_us",
    "admit_us",
    "dispatch_us",
    "device_us",
    "complete_us",
    "held_us",
    "queued_us",
    "service_us",
    "latency_us",
)


@dataclass
class Trace:
    """Everything one traced scenario run recorded."""

    meta: dict = field(default_factory=dict)
    spans: list[RequestSpan] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    dropped_spans: int = 0

    def attribution(self, by: str = "app") -> dict[str, LatencyAttribution]:
        """Per-app (or per-cgroup) latency attribution over the spans."""
        from repro.obs.span import RequestTracer

        tracer = RequestTracer()
        tracer.spans = self.spans
        return tracer.attribution(by=by)

    def sample_keys(self) -> list[str]:
        """Union of all sample-row keys, ``t_us`` first (CSV header order)."""
        seen: dict[str, None] = {"t_us": None}
        for row in self.samples:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(trace: Trace, path: str) -> None:
    """One record per line: a meta header, then spans, then samples."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"type": "meta", "dropped_spans": trace.dropped_spans}
        header.update(trace.meta)
        fh.write(json.dumps(header) + "\n")
        for span in trace.spans:
            record = {"type": "span"}
            record.update(span.as_dict())
            fh.write(json.dumps(record) + "\n")
        for row in trace.samples:
            record = {"type": "sample"}
            record.update(row)
            fh.write(json.dumps(record) + "\n")


def write_records_jsonl(records: list[dict], path) -> int:
    """Write plain-dict records one per line, keys sorted; returns the count.

    The one writer of the decision traces ``isol-bench tune`` and
    ``isol-bench ctl`` export with ``--trace-out``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str) -> Trace:
    """Parse a file written by :func:`write_jsonl` back into a Trace."""
    trace = Trace()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "meta":
                trace.dropped_spans = record.pop("dropped_spans", 0)
                trace.meta = record
            elif kind == "span":
                trace.spans.append(RequestSpan.from_dict(record))
            elif kind == "sample":
                trace.samples.append(record)
            else:
                raise ValueError(f"unknown trace record type {kind!r}")
    return trace


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def write_spans_csv(trace: Trace, path: str) -> None:
    """Write the trace's spans as CSV, one row per request."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SPAN_FIELDS)
        writer.writeheader()
        for span in trace.spans:
            writer.writerow(span.as_dict())


def read_spans_csv(path: str) -> list[RequestSpan]:
    """Parse a file written by :func:`write_spans_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [RequestSpan.from_dict(row) for row in csv.DictReader(fh)]


def write_samples_csv(trace: Trace, path: str) -> None:
    """Write the periodic samples as CSV; absent keys render empty."""
    keys = trace.sample_keys()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, restval="")
        writer.writeheader()
        for row in trace.samples:
            writer.writerow(row)


def read_samples_csv(path: str) -> list[dict]:
    """Parse a file written by :func:`write_samples_csv` (floats only)."""
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in csv.DictReader(fh):
            rows.append(
                {key: float(value) for key, value in raw.items() if value != ""}
            )
    return rows


# ----------------------------------------------------------------------
# Chrome Trace Event Format
# ----------------------------------------------------------------------
# Phase slices get stable colour names from the trace-viewer palette so
# held/queued/service are visually distinguishable without zooming.
_PHASE_CNAMES = {
    "held": "terrible",
    "queued": "bad",
    "service": "good",
}


def _assign_lanes(spans: list[RequestSpan]) -> list[int]:
    """Greedy interval packing: one viewer lane (tid) per in-flight slot.

    Concurrent requests of one app must not share a lane or their slices
    would overlap; reusing the first lane free at submit time keeps the
    lane count equal to the app's peak queue depth.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i].submit_us, i))
    lanes = [0] * len(spans)
    free: list[tuple[float, int]] = []  # (free_at, lane)
    next_lane = 0
    for index in order:
        span = spans[index]
        if free and free[0][0] <= span.submit_us:
            _, lane = heapq.heappop(free)
        else:
            lane = next_lane
            next_lane += 1
        lanes[index] = lane
        heapq.heappush(free, (span.complete_us, lane))
    return lanes


def chrome_trace_events(trace: Trace) -> list[dict]:
    """Build the Chrome ``traceEvents`` list for a trace."""
    events: list[dict] = []
    # One viewer process per app; pid 0 hosts the sampler counters.
    apps = sorted({span.app for span in trace.spans})
    pids = {app: index + 1 for index, app in enumerate(apps)}
    for app, pid in pids.items():
        cgroups = sorted({s.cgroup for s in trace.spans if s.app == app})
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"{app} ({', '.join(cgroups)})"},
            }
        )
    by_app: dict[str, list[RequestSpan]] = {app: [] for app in apps}
    for span in trace.spans:
        by_app[span.app].append(span)
    for app, spans in by_app.items():
        pid = pids[app]
        lanes = _assign_lanes(spans)
        for span, lane in zip(spans, lanes):
            phases = (
                ("held", span.submit_us, span.held_us),
                ("queued", span.admit_us, span.queued_us),
                ("service", span.dispatch_us, span.service_us),
            )
            for name, start, duration in phases:
                events.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": span.op_name(),
                        "pid": pid,
                        "tid": lane,
                        "ts": start,
                        "dur": duration,
                        "cname": _PHASE_CNAMES[name],
                        "args": {
                            "op": span.op_name(),
                            "size": span.size,
                            "device": span.device_index,
                            "latency_us": span.latency_us,
                        },
                    }
                )
    if trace.samples:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": 0,
                "tid": 0,
                "ts": 0,
                "args": {"name": "stack sampler (io.stat)"},
            }
        )
        for row in trace.samples:
            ts = row["t_us"]
            for key, value in row.items():
                if key == "t_us":
                    continue
                events.append(
                    {
                        "ph": "C",
                        "name": key,
                        "pid": 0,
                        "tid": 0,
                        "ts": ts,
                        "args": {"value": value},
                    }
                )
    return events


def write_chrome_trace(trace: Trace, path: str) -> None:
    """Write a Perfetto/chrome://tracing-loadable JSON object."""
    document = {
        "traceEvents": chrome_trace_events(trace),
        "displayTimeUnit": "ms",
        "otherData": dict(trace.meta),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
