"""Pinned benchmark suite and trajectory comparison (``isol-bench bench``).

The simulator's own performance is an experimental artifact too: the
paper's sweeps are only tractable because the event loop sustains its
events/sec, the executor keeps its workers busy, and the result cache
absorbs repeat work. This module pins a small suite of representative
cases and tracks their throughput over the repo's history:

* ``d1-overhead`` — two saturating batch apps under an io.cost knob
  configured not to control (the §V overhead shape);
* ``d2-fairness`` — three uniform cgroups under BFQ weights (the §VI-A
  fairness shape);
* ``d5-faulted`` — the D5 LC-vs-BE shape under a GC-storm fault plan
  and an MQ-Deadline priority knob (exercises the fault injection and
  retry paths);
* ``exec-batch`` — a six-submission sweep (three distinct scenarios,
  each submitted twice) run twice through a :class:`~repro.exec.
  executor.SweepExecutor` with a fresh cache, after an untimed sweep
  that starts the worker pool: the first timed sweep measures dedup +
  execution, the second measures pure cache hits; worker utilization
  and cache hit stats land in the bench record.

The first three are *profiled* cases: each repeat times an unprofiled
run (``events / wall_seconds``), so the profiler's own cost never moves
the rate, and one extra run under :func:`~repro.prof.profile_run`
supplies the record's exclusive per-phase breakdown.

Raw events/sec is machine-dependent, so every repeat also runs a
*calibration* loop — a closed chain of trivial callbacks on a bare
:class:`~repro.sim.engine.Simulator`, the same drive the overhead guard
in ``tests/unit/test_obs_overhead.py`` uses — right before and right
after each case sample. Trajectory comparison operates on
**normalized** rates (case events/sec divided by the paired
calibration events/sec), so a committed trajectory from one machine
remains comparable on another; the medians over repeats give the
paired-median robustness the overhead guard established. A full run
takes :data:`FULL_REPEATS` repeats, a ``mini`` run
:data:`MINI_REPEATS`.

Bench records are JSON files named ``BENCH_<nnnn>.json`` (monotonic
counter) under ``benchmarks/trajectory/``; :func:`compare_benches`
diffs two records and flags any case whose normalized throughput
regressed by more than ``threshold``.
"""

from __future__ import annotations

import json
import re
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, TypeVar

from repro.core.config import MqDeadlineKnob, Scenario
from repro.core.knob_catalog import fairness_knobs, overhead_knobs
from repro.core.runner import run_scenario
from repro.core.scenarios import (
    batch_scaling_specs,
    robustness_specs,
    uniform_fairness_groups,
)
from repro.exec.cache import ResultCache
from repro.exec.executor import ExecutorStats, SweepExecutor
from repro.faults.presets import gc_storm_plan
from repro.prof.config import ProfConfig
from repro.sim.engine import Simulator
from repro.ssd.presets import samsung_980pro_like

#: Bumped when the bench record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Default trajectory directory, relative to the repo root / cwd.
DEFAULT_TRAJECTORY_DIR = Path("benchmarks") / "trajectory"

#: Default paired-median slowdown threshold for :func:`compare_benches`.
DEFAULT_THRESHOLD = 1.3

#: Paired repeats per case of a full run (a committed trajectory
#: record) and of a ``mini`` run (CI's candidate). On a shared 2-vCPU
#: host one sample's normalized rate spreads about +-15%, so a
#: single-sample candidate tripped a 1.35x gate on unchanged code in
#: about one run in seven; a median of three held it.
FULL_REPEATS = 9
MINI_REPEATS = 3

#: Case names in suite order.
CASE_NAMES = ("d1-overhead", "d2-fairness", "d5-faulted", "exec-batch")

#: Events fired per calibration run (split over several closed chains).
CALIBRATION_EVENTS = 40_000
_CALIBRATION_CHAINS = 8

#: All bench scenarios run at this device scale (events-per-run control).
_DEVICE_SCALE = 8.0
_SEED = 42

_BENCH_NAME_RE = re.compile(r"^BENCH_(\d{4,})\.json$")

T = TypeVar("T")


# ----------------------------------------------------------------------
# Case scenario builders (fixed content: the whole point is that the
# same work is measured across the repo's history)
# ----------------------------------------------------------------------
def _d1_scenario() -> Scenario:
    """The §V overhead shape: saturating batch apps, knob not controlling."""
    ssd = samsung_980pro_like()
    apps = batch_scaling_specs(2, queue_depth=64)
    knob = overhead_knobs(
        ssd.scaled(_DEVICE_SCALE), [spec.cgroup_path for spec in apps]
    )["io.cost"]
    return Scenario(
        name="bench-d1-overhead",
        knob=knob,
        apps=apps,
        ssd_model=ssd,
        duration_s=0.3,
        warmup_s=0.1,
        seed=_SEED,
        device_scale=_DEVICE_SCALE,
    )


def _d2_scenario() -> Scenario:
    """The §VI-A fairness shape: three uniform cgroups under BFQ."""
    from repro.core.scenarios import fairness_specs

    ssd = samsung_980pro_like()
    groups = uniform_fairness_groups(3)
    knob = fairness_knobs(
        groups, ssd.scaled(_DEVICE_SCALE), weighted=False,
        latency_scale=_DEVICE_SCALE,
    )["bfq"]
    return Scenario(
        name="bench-d2-fairness",
        knob=knob,
        apps=fairness_specs(groups, apps_per_group=2, queue_depth=64),
        ssd_model=ssd,
        duration_s=0.3,
        warmup_s=0.1,
        seed=_SEED,
        device_scale=_DEVICE_SCALE,
    )


def _d5_scenario() -> Scenario:
    """A faulted D5 cell: LC vs BE under a GC storm, MQ-DL priorities."""
    return Scenario(
        name="bench-d5-faulted",
        knob=MqDeadlineKnob(
            classes={"/tenants/prio": "realtime", "/tenants/be": "idle"}
        ),
        apps=robustness_specs(be_queue_depth=32, n_be_apps=2),
        ssd_model=samsung_980pro_like(),
        duration_s=0.3,
        warmup_s=0.1,
        seed=_SEED,
        device_scale=_DEVICE_SCALE,
        faults=gc_storm_plan(),
    )


def _exec_batch_scenarios() -> list[Scenario]:
    """Six submissions: three distinct tiny scenarios, each twice.

    Submitted to one sweep the duplicates dedupe (3 executed, 3
    deduped); resubmitted against the same cache they all hit (6
    cached). Both behaviours are part of what the case measures.
    """
    distinct = [
        Scenario(
            name=f"bench-exec-{seed}",
            knob=MqDeadlineKnob(),
            apps=batch_scaling_specs(1, queue_depth=32),
            ssd_model=samsung_980pro_like(),
            duration_s=0.15,
            warmup_s=0.05,
            seed=seed,
            device_scale=_DEVICE_SCALE,
        )
        for seed in (1, 2, 3)
    ]
    return distinct + list(distinct)


_PROFILED_BUILDERS = {
    "d1-overhead": _d1_scenario,
    "d2-fairness": _d2_scenario,
    "d5-faulted": _d5_scenario,
}


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def run_calibration(
    n_events: int = CALIBRATION_EVENTS, chains: int = _CALIBRATION_CHAINS
) -> tuple[int, float]:
    """Fire ``n_events`` trivial callbacks on a bare engine.

    Returns ``(events_fired, elapsed_seconds)``. The drive is a set of
    closed reschedule chains (constant heap size), i.e. pure engine
    overhead: pop, fire, push. Case rates divided by this rate are
    machine-independent enough to commit and compare across hosts.
    """
    sim = Simulator()
    remaining = [n_events]

    def _make(delay_us: float):
        """One self-rescheduling chain link with a fixed period."""

        def tick() -> None:
            """Burn one event and keep the chain alive."""
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(delay_us, tick)

        return tick

    for i in range(chains):
        sim.schedule(1.0 + 0.1 * i, _make(1.0 + 0.1 * i))
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    return sim.events_processed, elapsed


def _bracketed(timed: Callable[[], T]) -> tuple[T, float]:
    """Run ``timed()`` between two calibration runs.

    Returns its result and the pooled calibration rate (events/sec over
    both runs). Both runs sit right next to the timed work, so the pair
    tracks a machine that changes speed around the sample: on a shared
    2-vCPU host the calibration rate can halve from one second to the
    next, and calibrating ahead of ``exec-batch``'s pool start-up,
    about a second early, nearly doubled that case's spread.
    """
    before_events, before_elapsed = run_calibration()
    result = timed()
    after_events, after_elapsed = run_calibration()
    elapsed = before_elapsed + after_elapsed
    rate = (before_events + after_events) / elapsed if elapsed > 0 else 0.0
    return result, rate


# ----------------------------------------------------------------------
# Case runners: one repeat each, returning the sample and the rate of
# the calibration that brackets it
# ----------------------------------------------------------------------
def _run_profiled_case(name: str) -> tuple[dict, float]:
    """One timed repeat of a profiled case: an unprofiled run's rate."""
    scenario = _PROFILED_BUILDERS[name]()
    result, calib_rate = _bracketed(lambda: run_scenario(scenario))
    wall = result.wall_seconds
    sample = {
        "events": result.events_processed,
        "rate": result.events_processed / wall if wall > 0 else 0.0,
    }
    return sample, calib_rate


def _profile_case(name: str):
    """The case's :class:`~repro.prof.SimProfile`, from one profiled run."""
    scenario = replace(_PROFILED_BUILDERS[name](), prof=ProfConfig())
    return run_scenario(scenario).profile


def _run_exec_case(workers: int) -> tuple[dict, float]:
    """One repeat of the executor case; the sample holds events/rate/stats.

    A fresh executor and a fresh (temporary) cache per repeat, so the
    cold-sweep/warm-sweep structure is identical every time. A worker
    pool is started by an uncached sweep outside the rate: spawning
    each worker and importing the engine there is process start-up,
    which the engine calibration cannot normalize. That sweep's wall
    time is kept as ``start_up_seconds`` (0 without a pool).
    """
    scenarios = _exec_batch_scenarios()
    with tempfile.TemporaryDirectory(prefix="isolbench-bench-") as tmp:
        cache = ResultCache(Path(tmp))
        with SweepExecutor(max_workers=workers) as executor:
            if workers > 1:
                executor.run_strict(scenarios)  # start-up: spawn the pool
            start_up_seconds = executor.stats.elapsed_seconds
            executor.stats = ExecutorStats(workers=workers)
            executor.cache = cache

            def sweeps() -> None:
                """The timed work: a cold and a warm sweep."""
                executor.run_strict(scenarios)  # cold: execute + dedup
                executor.run_strict(scenarios)  # warm: pure cache hits

            _, calib_rate = _bracketed(sweeps)
            stats = executor.stats
            sample = {
                "events": stats.events_processed,
                "rate": stats.events_per_sec,
                "start_up_seconds": start_up_seconds,
                "executor": stats.to_json_dict(),
                "cache": {
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "stores": cache.stats.stores,
                },
            }
            return sample, calib_rate


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
def run_bench(
    repeats: int = FULL_REPEATS,
    mini: bool = False,
    cases: tuple[str, ...] | None = None,
    workers: int = 1,
    label: str | None = None,
) -> dict:
    """Run the pinned suite and return a bench record (JSON-ready dict).

    ``mini`` drops to :data:`MINI_REPEATS` repeats but keeps every
    case's *content* identical, so a mini record (the CI job) remains
    comparable against a committed full record. ``cases`` filters the
    suite by name; ``workers`` sizes the executor case's pool.
    """
    selected = CASE_NAMES if cases is None else tuple(cases)
    unknown = [name for name in selected if name not in CASE_NAMES]
    if unknown:
        raise ValueError(f"unknown bench case(s): {unknown}; know {CASE_NAMES}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if mini:
        repeats = MINI_REPEATS

    samples: dict[str, list[dict]] = {name: [] for name in selected}
    calib_rates: dict[str, list[float]] = {name: [] for name in selected}
    for _ in range(repeats):
        for name in selected:
            if name == "exec-batch":
                sample, calib_rate = _run_exec_case(workers)
            else:
                sample, calib_rate = _run_profiled_case(name)
            calib_rates[name].append(calib_rate)
            samples[name].append(sample)

    record: dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "mini": mini,
        "repeats": repeats,
        "workers": workers,
        "calibration_events": CALIBRATION_EVENTS,
        "cases": {},
    }
    for name in selected:
        rows = samples[name]
        rates = [row["rate"] for row in rows]
        calibs = calib_rates[name]
        normalized = [
            rate / calib if calib > 0 else 0.0
            for rate, calib in zip(rates, calibs)
        ]
        entry: dict = {
            "kind": "executor" if name == "exec-batch" else "profiled",
            "events": rows[-1]["events"],
            "rates": rates,
            "median_rate": median(rates),
            "calibration_rates": calibs,
            "normalized_rates": normalized,
            "median_normalized": median(normalized),
        }
        if name == "exec-batch":
            entry["start_up_seconds"] = median(
                row["start_up_seconds"] for row in rows
            )
            entry["executor"] = rows[-1]["executor"]
            entry["cache"] = rows[-1]["cache"]
        else:
            # After the timed repeats, so it never sits between a
            # calibration and the case sample it normalizes.
            entry.update(_profile_case(name).to_json_dict())
        record["cases"][name] = entry
    return record


# ----------------------------------------------------------------------
# Trajectory files
# ----------------------------------------------------------------------
def bench_paths(directory: Path | str) -> list[Path]:
    """All ``BENCH_<nnnn>.json`` files in ``directory``, in number order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    matches = [
        (int(match.group(1)), path)
        for path in directory.iterdir()
        if (match := _BENCH_NAME_RE.match(path.name))
    ]
    return [path for _, path in sorted(matches)]


def next_bench_path(directory: Path | str) -> Path:
    """The next free ``BENCH_<nnnn>.json`` slot in ``directory``."""
    directory = Path(directory)
    existing = bench_paths(directory)
    if existing:
        last = int(_BENCH_NAME_RE.match(existing[-1].name).group(1))
    else:
        last = 0
    return directory / f"BENCH_{last + 1:04d}.json"


def latest_bench_path(directory: Path | str) -> Path | None:
    """The highest-numbered bench record, or None if there is none."""
    existing = bench_paths(directory)
    return existing[-1] if existing else None


def write_bench(record: dict, directory: Path | str) -> Path:
    """Write ``record`` into the next numbered slot; returns the path."""
    path = next_bench_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Path | str) -> dict:
    """Load a bench record, checking its schema version."""
    record = json.loads(Path(path).read_text())
    version = record.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {version!r}, expected {BENCH_SCHEMA_VERSION}"
        )
    return record


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseComparison:
    """One case's baseline-vs-current normalized throughput."""

    name: str
    baseline: float
    current: float
    #: ``baseline / current`` — how many times slower the current run is.
    slowdown: float
    regressed: bool
    #: Raw (machine-dependent) median events/sec, for context alongside
    #: the normalized numbers the verdict is computed from.
    baseline_rate: float = 0.0
    current_rate: float = 0.0

    @property
    def speedup(self) -> float:
        """``current / baseline`` normalized — the improvement factor."""
        return self.current / self.baseline if self.baseline > 0 else float("inf")

    @property
    def raw_speedup(self) -> float:
        """``current / baseline`` on raw events/sec (machine-dependent)."""
        if self.baseline_rate > 0:
            return self.current_rate / self.baseline_rate
        return float("inf")


@dataclass(frozen=True)
class CompareReport:
    """The result of diffing two bench records."""

    threshold: float
    rows: list[CaseComparison] = field(default_factory=list)
    #: Baseline cases absent from the current record (treated as failures).
    missing: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CaseComparison]:
        """The rows whose slowdown exceeded the threshold."""
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        """True when no case regressed and none went missing."""
        return not self.regressions and not self.missing

    def render(self) -> str:
        """Human-readable comparison table.

        The verdict column is computed on normalized rates; the raw
        events/sec speedup is shown alongside for context (it is
        machine-dependent and carries no pass/fail weight).
        """
        lines = [
            f"{'case':<14s} {'baseline':>10s} {'current':>10s} "
            f"{'speedup':>8s} {'raw':>9s}  status"
        ]
        for row in self.rows:
            status = "REGRESSED" if row.regressed else "ok"
            if row.baseline_rate > 0 and row.current_rate > 0:
                raw = f"{row.raw_speedup:>8.2f}x"
            else:
                raw = f"{'-':>9s}"
            lines.append(
                f"{row.name:<14s} {row.baseline:>10.3f} {row.current:>10.3f} "
                f"{row.speedup:>7.2f}x {raw}  {status}"
            )
        for name in self.missing:
            lines.append(
                f"{name:<14s} {'-':>10s} {'-':>10s} {'-':>8s} {'-':>9s}  MISSING"
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing case(s) "
            f"(threshold {self.threshold:g}x on normalized rate)"
        )
        return "\n".join(lines)


def compare_benches(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> CompareReport:
    """Diff two bench records on paired-median normalized throughput.

    A case regresses when ``baseline_median_normalized /
    current_median_normalized > threshold`` — i.e. the current run's
    machine-normalized events/sec fell by more than the threshold
    factor. Cases present only in ``current`` are ignored (new cases
    cannot regress); cases present only in ``baseline`` fail the
    comparison as missing.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    rows: list[CaseComparison] = []
    missing: list[str] = []
    for name, base_entry in baseline.get("cases", {}).items():
        cur_entry = current.get("cases", {}).get(name)
        if cur_entry is None:
            missing.append(name)
            continue
        base = float(base_entry["median_normalized"])
        cur = float(cur_entry["median_normalized"])
        slowdown = base / cur if cur > 0 else float("inf")
        rows.append(
            CaseComparison(
                name=name,
                baseline=base,
                current=cur,
                slowdown=slowdown,
                regressed=slowdown > threshold,
                baseline_rate=float(base_entry.get("median_rate", 0.0)),
                current_rate=float(cur_entry.get("median_rate", 0.0)),
            )
        )
    return CompareReport(threshold=threshold, rows=rows, missing=missing)
