"""Per-app completion recording and measurement-window views.

The collector is the simulation's fio output: every completed request is
recorded per app (completion time, latency, size, direction) and windowed
statistics are derived afterwards. Apps also report their cgroup so
results can be aggregated per group (the unit the fairness desideratum
is evaluated at).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.iorequest import GIB, MIB, IoRequest, OpType
from repro.metrics.latency import LatencySummary, summarize_latencies


@dataclass(frozen=True)
class AppWindowStats:
    """One app's (or group's) statistics over a measurement window."""

    name: str
    cgroup_path: str
    ios: int
    bytes: int
    window_us: float
    latency: LatencySummary | None

    @property
    def bandwidth_mib_s(self) -> float:
        return self.bytes / MIB / (self.window_us / 1e6) if self.window_us > 0 else 0.0

    @property
    def bandwidth_gib_s(self) -> float:
        return self.bytes / GIB / (self.window_us / 1e6) if self.window_us > 0 else 0.0

    @property
    def iops(self) -> float:
        return self.ios / (self.window_us / 1e6) if self.window_us > 0 else 0.0


#: Completion columns in storage order, with their frozen dtypes.
COLUMNS = (("times", "<f8"), ("latencies", "<f8"), ("sizes", "<i8"), ("ops", "<i1"))


class CompletionLog:
    """One app's completion columns (us, us, bytes, OpType), in completion order.

    Live, the columns are lists that :meth:`MetricsCollector.on_complete`
    appends to; :meth:`frozen` copies them once into numpy columns
    (float64, float64, int64, int8) for summaries and the result cache.
    Completion times never decrease (the host stamps ``sim.now``), so a
    window is two bisections and each query costs O(log n + window) on
    either form. This is the one implementation of window queries.
    """

    __slots__ = ("name", "cgroup_path", "times", "latencies", "sizes", "ops", "total_bytes")

    def __init__(self, name, cgroup_path, times=None, latencies=None, sizes=None, ops=None):
        self.name = name
        self.cgroup_path = cgroup_path
        self.times = [] if times is None else times
        self.latencies = [] if latencies is None else latencies
        self.sizes = [] if sizes is None else sizes
        self.ops = [] if ops is None else ops
        #: Running byte total of a live log (dynamic io.max reads it).
        self.total_bytes = 0

    def frozen(self) -> "CompletionLog":
        """A copy with numpy columns (the live lists stay untouched)."""
        columns = (np.array(getattr(self, name), dtype=dtype) for name, dtype in COLUMNS)
        return CompletionLog(self.name, self.cgroup_path, *columns)

    def span(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Row range ``[lo, hi)`` of the completions in ``[t_start, t_end)``."""
        lo = bisect_left(self.times, t_start)
        return lo, bisect_left(self.times, t_end, lo)

    def window_latencies(self, t_start: float, t_end: float) -> list[float]:
        """Latencies of the completions in ``[t_start, t_end)``."""
        lo, hi = self.span(t_start, t_end)
        return _listed(self.latencies[lo:hi])

    def stats(self, t_start: float, t_end: float) -> AppWindowStats:
        """IOs, bytes and latency digest over ``[t_start, t_end)``."""
        lo, hi = self.span(t_start, t_end)
        return AppWindowStats(
            name=self.name,
            cgroup_path=self.cgroup_path,
            ios=hi - lo,
            bytes=int(np.sum(self.sizes[lo:hi], dtype=np.int64)),
            window_us=t_end - t_start,
            latency=summarize_latencies(self.latencies[lo:hi]) if hi > lo else None,
        )

    def series(self) -> tuple[list[float], list[int]]:
        """``(times, sizes)`` as lists of Python numbers."""
        return _listed(self.times), _listed(self.sizes)

    def to_json_dict(self) -> dict:
        """Plain-dict form: the columns as lists of Python numbers."""
        columns = {name: _listed(getattr(self, name)) for name, _ in COLUMNS}
        return {"name": self.name, "cgroup_path": self.cgroup_path, **columns}


def _listed(column) -> list:
    """A column as a list of Python numbers (a live list as it is)."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def cgroup_stats(
    logs: Iterable[CompletionLog], t_start: float, t_end: float
) -> dict[str, AppWindowStats]:
    """Per-cgroup stats over ``[t_start, t_end)``: apps merged, latencies pooled.

    Groups appear in the order their first app appears in ``logs``.
    """
    members: dict[str, list[tuple[CompletionLog, int, int]]] = {}
    for log in logs:
        lo, hi = log.span(t_start, t_end)
        members.setdefault(log.cgroup_path, []).append((log, lo, hi))
    merged: dict[str, AppWindowStats] = {}
    for path, spans in members.items():
        ios = sum(hi - lo for _, lo, hi in spans)
        pooled = [log.latencies[lo:hi] for log, lo, hi in spans if hi > lo]
        merged[path] = AppWindowStats(
            name=path,
            cgroup_path=path,
            ios=ios,
            bytes=sum(int(np.sum(log.sizes[lo:hi], dtype=np.int64)) for log, lo, hi in spans),
            window_us=t_end - t_start,
            latency=summarize_latencies(np.concatenate(pooled)) if ios else None,
        )
    return merged


def total_bytes(logs: Iterable[CompletionLog], t_start: float, t_end: float) -> int:
    """Bytes completed by every log in ``[t_start, t_end)``."""
    total = 0
    for log in logs:
        lo, hi = log.span(t_start, t_end)
        total += int(np.sum(log.sizes[lo:hi], dtype=np.int64))
    return total


class MetricsCollector:
    """Records completions for every app in a scenario (windows: :func:`cgroup_stats`)."""

    def __init__(self) -> None:
        #: Completion log per app, in registration order.
        self.logs: dict[str, CompletionLog] = {}

    def register_app(self, app_name: str, cgroup_path: str) -> None:
        if app_name in self.logs:
            raise ValueError(f"app {app_name!r} registered twice")
        self.logs[app_name] = CompletionLog(app_name, cgroup_path)

    def on_complete(self, req: IoRequest) -> None:
        log = self.logs[req.app_name]
        log.times.append(req.complete_time)
        log.latencies.append(req.latency_us)
        log.sizes.append(req.size)
        log.ops.append(int(req.op))
        log.total_bytes += req.size

    def lifetime_bytes_of_cgroup(self, cgroup_path: str) -> int:
        """Total bytes completed by a cgroup's apps since the start.

        Used by the dynamic io.max manager's activity detection.
        """
        return sum(
            log.total_bytes
            for log in self.logs.values()
            if log.cgroup_path == cgroup_path
        )

    # ------------------------------------------------------------------
    # Observability hooks
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Tee completions into a :class:`~repro.obs.span.RequestTracer`.

        Installed by wrapping :meth:`on_complete` with an instance
        attribute rather than adding a branch to the method, so the
        un-traced hot path stays identical to the seed.
        """
        inner = self.on_complete
        record = tracer.record

        def tapped(req: IoRequest) -> None:
            inner(req)
            record(req)

        self.on_complete = tapped  # type: ignore[method-assign]

    def iostat_cursor(self) -> "_IoStatCursor":
        """Incremental cumulative per-cgroup counters (io.stat lines).

        Each :meth:`_IoStatCursor.advance` call folds only completions
        recorded since the previous call into its running totals, so a
        periodic sampler pays O(new completions) per tick instead of
        rescanning every log.
        """
        return _IoStatCursor(self.logs)


class _IoStatCursor:
    """Running per-cgroup rbytes/wbytes/rios/wios totals."""

    _FIELDS = ("rbytes", "wbytes", "rios", "wios")

    def __init__(self, logs: dict[str, CompletionLog]):
        self._logs = logs
        self._offsets: dict[str, int] = {name: 0 for name in logs}
        self._totals: dict[str, list[float]] = {}

    def advance(self) -> dict[str, float]:
        """Fold new completions in; return flat cumulative counters."""
        for app_name, log in self._logs.items():
            offset = self._offsets.get(app_name, 0)
            if offset >= len(log.sizes):
                continue
            totals = self._totals.get(log.cgroup_path)
            if totals is None:
                totals = [0.0, 0.0, 0.0, 0.0]
                self._totals[log.cgroup_path] = totals
            for size, op in zip(log.sizes[offset:], log.ops[offset:]):
                if op == int(OpType.READ):
                    totals[0] += size
                    totals[2] += 1
                else:
                    totals[1] += size
                    totals[3] += 1
            self._offsets[app_name] = len(log.sizes)
        row: dict[str, float] = {}
        for path, totals in self._totals.items():
            for field_name, value in zip(self._FIELDS, totals):
                row[f"cgroup.{path}.{field_name}"] = value
        return row
