"""Compact, serializable scenario results.

:class:`ScenarioSummary` is the unit the sweep executor moves across
process boundaries and stores in the result cache. Its accessors are
views over each app's :class:`~repro.metrics.collector.CompletionLog`
(frozen: numpy columns); a :class:`~repro.core.runner.ScenarioResult`
is a summary over the live logs plus the :class:`~repro.core.host.Host`
that produced them. A summary offers everything a result does but the
host (event heap, controllers, tracer), which is deliberately and
permanently excluded: hosts hold closures over the simulator and do not
pickle, and a cached result must not pretend to offer live-object access.

The contract, enforced by unit tests:

* a summary round-trips unchanged through ``pickle``, JSON and the
  result cache's columnar entries (:mod:`repro.exec.cache`);
* two runs of the same seeded scenario -- in-process or in a spawned
  worker -- produce summaries whose :meth:`ScenarioSummary.content_equal`
  is True (``wall_seconds`` is wall-clock noise and excluded);
* there is no ``host`` attribute, ever.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.cpu.accounting import CpuReport
from repro.iorequest import GIB
from repro.metrics.collector import AppWindowStats, CompletionLog, cgroup_stats, total_bytes
from repro.metrics.fairness import weighted_jain_index
from repro.metrics.latency import cdf

#: Bump when the summary layout changes; folded into cache keys so stale
#: cache entries from older layouts can never be returned.
#: v2: added fault_counters (failure accounting under Scenario.faults).
#: v3: added ctl_counters (control-plane accounting under Scenario.ctl).
SUMMARY_SCHEMA_VERSION = 3


@dataclass
class ScenarioSummary:
    """Measurements of one scenario run, detached from the live host."""

    scenario_name: str
    knob_label: str
    seed: int
    num_devices: int
    cores: int
    device_scale: float
    t_start_us: float
    t_end_us: float
    #: Each app's frozen completion log (numpy columns), by app name.
    apps: dict[str, CompletionLog]
    cpu: CpuReport
    work_conservation_violation: float
    events_processed: int = 0
    # Failure accounting under Scenario.faults (retries, timeouts,
    # delivered failures, per-device injector counters); empty for
    # fault-free runs. Deterministic content: same seed + same plan
    # must reproduce it bit-identically.
    fault_counters: dict[str, float] = field(default_factory=dict)
    # Control-plane accounting under Scenario.ctl (plane steps, per-
    # controller applied/skipped and final-setting counters); empty for
    # uncontrolled runs. Deterministic content like fault_counters: the
    # plane runs on the sim clock, so same scenario -> same counters.
    ctl_counters: dict[str, float] = field(default_factory=dict)
    # Wall-clock diagnostics of the run that produced this summary; not
    # part of the deterministic content (see content_equal).
    wall_seconds: float = 0.0
    schema_version: int = SUMMARY_SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Windows and series: views over the CompletionLog window queries
    # ------------------------------------------------------------------
    @property
    def window_us(self) -> float:
        """Measurement-window length in microseconds."""
        return self.t_end_us - self.t_start_us

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput of the producing run (wall-clock rate)."""
        return self.events_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def app_names(self) -> list[str]:
        """Sorted names of every app that completed at least one IO."""
        return sorted(self.apps)

    def cgroup_of(self, app_name: str) -> str:
        """The cgroup path the app ran in."""
        return self.apps[app_name].cgroup_path

    def series_of(self, app_name: str) -> tuple[list[float], list[int]]:
        """Completion series as ``(times_us, sizes_bytes)``."""
        return self.apps[app_name].series()

    def window_latencies(self, app_name: str, t_start: float, t_end: float) -> list[float]:
        """Latencies of completions inside ``[t_start, t_end)``."""
        return self.apps[app_name].window_latencies(t_start, t_end)

    def app_stats_window(self, app_name: str, t_start: float, t_end: float) -> AppWindowStats:
        """IOs/bytes/latency digest of one app over an arbitrary window."""
        return self.apps[app_name].stats(t_start, t_end)

    def app_stats(self, app_name: str) -> AppWindowStats:
        """:meth:`app_stats_window` over the full measurement window."""
        return self.apps[app_name].stats(self.t_start_us, self.t_end_us)

    def all_app_stats(self) -> dict[str, AppWindowStats]:
        """Full-window stats for every app, keyed by name."""
        return {name: self.app_stats(name) for name in self.app_names()}

    def cgroup_stats(self) -> dict[str, AppWindowStats]:
        """Per-cgroup stats: member apps merged, latencies pooled."""
        return cgroup_stats(self.apps.values(), self.t_start_us, self.t_end_us)

    def latency_cdf(self, app_name: str, points: int = 200):
        """Empirical latency CDF of one app over the full window."""
        log = self.apps[app_name]
        lo, hi = log.span(self.t_start_us, self.t_end_us)
        return cdf(log.latencies[lo:hi], points=points)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_bytes(self, t_start: float, t_end: float) -> int:
        """Bytes completed by all apps inside the window."""
        return total_bytes(self.apps.values(), t_start, t_end)

    @property
    def aggregate_bandwidth_gib_s(self) -> float:
        """All-app bandwidth over the measurement window, in GiB/s."""
        total = self.total_bytes(self.t_start_us, self.t_end_us)
        return total / GIB / (self.window_us / 1e6)

    @property
    def equivalent_bandwidth_gib_s(self) -> float:
        """Bandwidth rescaled to the unscaled device (x ``device_scale``)."""
        return self.aggregate_bandwidth_gib_s * self.device_scale

    def fairness(self, weights_by_group: dict[str, float] | None = None) -> float:
        """Weighted Jain fairness index over per-cgroup bandwidth."""
        groups = self.cgroup_stats()
        if not groups:
            raise ValueError("no completions in the measurement window")
        paths = sorted(groups)
        bandwidths = [groups[path].bytes / (self.window_us / 1e6) for path in paths]
        if weights_by_group is None:
            weights = [1.0] * len(paths)
        else:
            missing = [path for path in paths if path not in weights_by_group]
            if missing:
                raise ValueError(f"missing weights for groups: {missing}")
            weights = [weights_by_group[path] for path in paths]
        return weighted_jain_index(bandwidths, weights)

    def describe(self) -> str:
        """One-paragraph text summary (used by the CLI)."""
        lines = [
            f"scenario {self.scenario_name!r} "
            f"[knob={self.knob_label}, "
            f"{self.num_devices} SSD(s), {self.cores} cores]",
            f"  aggregate bandwidth: {self.aggregate_bandwidth_gib_s:.3f} GiB/s",
            f"  cpu: {self.cpu}",
            f"  engine: {self.events_processed:,} events in "
            f"{self.wall_seconds:.2f}s wall ({self.events_per_sec:,.0f} events/s)",
        ]
        for name, stats in sorted(self.all_app_stats().items()):
            latency = f", {stats.latency}" if stats.latency else ""
            lines.append(
                f"  app {name:<12s} {stats.bandwidth_mib_s:9.1f} MiB/s "
                f"({stats.iops:9.0f} IOPS){latency}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Equality and serialization
    # ------------------------------------------------------------------
    def scalar_fields(self) -> dict:
        """Every summary field but ``apps``, with ``cpu`` as a plain dict."""
        doc = {name: getattr(self, name) for name in _FIELDS if name != "apps"}
        doc["cpu"] = asdict(self.cpu)
        doc["fault_counters"] = dict(self.fault_counters)
        doc["ctl_counters"] = dict(self.ctl_counters)
        return doc

    def content_dict(self) -> dict:
        """The deterministic content, excluding wall-clock noise."""
        doc = self.to_json_dict()
        doc.pop("wall_seconds", None)
        return doc

    def content_equal(self, other: "ScenarioSummary") -> bool:
        """Bit-identical deterministic content (ignores wall_seconds)."""
        return self.content_dict() == other.content_dict()

    def to_json_dict(self) -> dict:
        """Plain-dict form (JSON-serializable; columns as number lists)."""
        doc = self.scalar_fields()
        doc["apps"] = {name: log.to_json_dict() for name, log in self.apps.items()}
        return {name: doc[name] for name in _FIELDS}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioSummary":
        """Rebuild a summary from a :meth:`to_json_dict` document."""
        doc = dict(doc)
        doc["apps"] = {
            name: CompletionLog(**series).frozen() for name, series in doc["apps"].items()
        }
        doc["cpu"] = CpuReport(**doc["cpu"])
        return cls(**doc)


#: The summary's own fields (a ScenarioResult adds live objects).
_FIELDS = tuple(f.name for f in fields(ScenarioSummary))


def summarize(result) -> ScenarioSummary:
    """Distill a live :class:`~repro.core.runner.ScenarioResult`.

    Freezes its completion logs into numpy columns (apps sorted by
    name) and keeps the other measurements; the host object itself is
    dropped here and never travels further.
    """
    doc = {name: getattr(result, name) for name in _FIELDS}
    doc["apps"] = {name: result.apps[name].frozen() for name in result.app_names()}
    return ScenarioSummary(**doc)


def run_scenario_summary(scenario) -> ScenarioSummary:
    """Run one scenario and return its summary (the worker entry point).

    The finished host is released (:meth:`~repro.core.host.Host.release`),
    so the run is freed by reference counting as the result is dropped.
    """
    from repro.core.runner import run_scenario

    result = run_scenario(scenario)
    summary = summarize(result)
    result.host.release()
    return summary
