"""Parallel, cached execution of scenario sweeps.

:class:`SweepExecutor` is the engine room of every paper artifact: the
Table I pipeline and the figure modules build lists of independent
:class:`~repro.core.config.Scenario` objects and hand them to
:meth:`SweepExecutor.run`, which

* consults the content-addressed :class:`~repro.exec.cache.ResultCache`
  (when attached) and only executes cache misses;
* collapses content-identical scenarios within one sweep (same cache
  key) onto a single execution, fanning the result back to every
  submission slot -- tuner search loops re-propose candidates freely;
* fans misses over a ``ProcessPoolExecutor`` (``max_workers`` defaults
  to ``os.cpu_count() - 1``; ``max_workers=1`` falls back to plain
  in-process execution -- the escape hatch for debugging and for
  pickling-hostile ad-hoc scenarios);
* returns results in **submission order** regardless of completion
  order;
* captures a failing scenario as a structured :class:`SweepError`
  (exception repr + full worker traceback text) without killing the
  rest of the sweep;
* drops a pool that a dead worker broke once the sweep has collected
  its errors, so the next sweep on the same executor starts a fresh one;
* reports ``k/n done, m cached, events/sec aggregate`` progress (plus
  worker-pool utilization: busy vs idle worker-seconds) after every
  completion through an optional callback.

Worker processes are started with the ``spawn`` method: children import
the package fresh, so the cross-process determinism contract ("a worker
produces the bit-identical summary an in-process run does") is tested
against the strictest possible process model, not fork's copied memory.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.config import Scenario
from repro.exec.cache import ResultCache
from repro.exec.cachekey import scenario_key
from repro.exec.summary import ScenarioSummary, run_scenario_summary


@dataclass(frozen=True)
class SweepError:
    """A scenario that raised, reported instead of propagated."""

    scenario_name: str
    error: str
    traceback_text: str

    def __str__(self) -> str:
        return f"scenario {self.scenario_name!r} failed: {self.error}"


class SweepFailure(RuntimeError):
    """Raised by :meth:`SweepExecutor.run_strict` on any SweepError."""

    def __init__(self, error: SweepError):
        super().__init__(f"{error}\n{error.traceback_text}")
        self.error = error


class _PoolRates:
    """Event throughput and worker-pool utilization of sweep counters.

    Shared by :class:`SweepProgress` (one sweep so far) and
    :class:`ExecutorStats` (an executor's lifetime); both carry
    ``events_processed``, ``elapsed_seconds``, ``busy_seconds`` and
    ``workers``.
    """

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulator event throughput of the executed runs."""
        return (
            self.events_processed / self.elapsed_seconds
            if self.elapsed_seconds > 0
            else 0.0
        )

    @property
    def idle_seconds(self) -> float:
        """Worker-seconds spent idle (pool capacity minus busy time)."""
        return max(0.0, self.workers * self.elapsed_seconds - self.busy_seconds)

    @property
    def utilization(self) -> float:
        """Fraction of worker-pool capacity spent executing scenarios."""
        capacity = self.workers * self.elapsed_seconds
        return self.busy_seconds / capacity if capacity > 0 else 0.0


@dataclass(frozen=True)
class SweepProgress(_PoolRates):
    """One ``k/n`` progress tick of a running sweep."""

    done: int
    total: int
    cached: int
    failed: int
    events_processed: int
    elapsed_seconds: float
    #: Submissions satisfied by an identical in-sweep scenario (same
    #: content-addressed key) instead of their own execution.
    deduped: int = 0
    #: Worker-side seconds spent executing scenarios so far this sweep.
    busy_seconds: float = 0.0
    #: Size of the worker pool the sweep is fanning over.
    workers: int = 1

    def __str__(self) -> str:
        deduped = f", {self.deduped} deduped" if self.deduped else ""
        return (
            f"{self.done}/{self.total} done, {self.cached} cached{deduped}, "
            f"{self.events_per_sec:,.0f} events/sec aggregate, "
            f"util={self.utilization:.0%}"
        )


@dataclass
class ExecutorStats(_PoolRates):
    """Cumulative counters over an executor's lifetime."""

    sweeps: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    deduped: int = 0
    #: Simulator events fired by executed (non-cached) scenario runs.
    events_processed: int = 0
    #: Wall-clock seconds spent inside :meth:`SweepExecutor.run`.
    elapsed_seconds: float = 0.0
    #: Worker-side seconds spent executing scenarios (busy time).
    busy_seconds: float = 0.0
    #: Size of the worker pool (per-sweep capacity multiplier).
    workers: int = 1
    #: Busy seconds per worker process, keyed by pid (the coordinating
    #: process itself for serial executors).
    worker_busy: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Plain-dict form for bench trajectory files."""
        return {
            "sweeps": self.sweeps,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "deduped": self.deduped,
            "events_processed": self.events_processed,
            "elapsed_seconds": self.elapsed_seconds,
            "busy_seconds": self.busy_seconds,
            "idle_seconds": self.idle_seconds,
            "utilization": self.utilization,
            "workers": self.workers,
            "worker_busy": dict(sorted(self.worker_busy.items())),
        }

    def __str__(self) -> str:
        return (
            f"{self.sweeps} sweep(s): {self.executed} executed, "
            f"{self.cached} cached, {self.deduped} deduped, {self.failed} failed; "
            f"{self.workers} worker(s): busy={self.busy_seconds:.1f}s "
            f"idle={self.idle_seconds:.1f}s ({self.utilization:.0%} util)"
        )


def _run_in_worker(scenario: Scenario):
    """Top-level worker entry point (must be picklable under spawn).

    Exceptions are caught *inside* the worker so their traceback text --
    which would otherwise die with the child process -- survives the
    trip back to the parent. The last payload element is worker-side
    accounting ``(pid, busy_seconds)`` feeding per-worker utilization.
    """
    started = time.perf_counter()
    try:
        summary = run_scenario_summary(scenario)
        return ("ok", summary, (os.getpid(), time.perf_counter() - started))
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        return (
            "err",
            repr(exc),
            traceback.format_exc(),
            (os.getpid(), time.perf_counter() - started),
        )


def _default_worker_count() -> int:
    """One worker per CPU, minus one for the coordinating process."""
    return max(1, (os.cpu_count() or 2) - 1)


class SweepExecutor:
    """Runs scenario lists in parallel with content-addressed caching."""

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ):
        self.max_workers = max_workers if max_workers is not None else _default_worker_count()
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.cache = cache
        self.progress = progress
        self.stats = ExecutorStats(workers=self.max_workers)
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Lazily create the spawn-context pool (first parallel miss)."""
        if self._pool is None:
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, scenarios: Sequence[Scenario]
    ) -> list[Union[ScenarioSummary, SweepError]]:
        """Run a sweep; results come back in submission order.

        A failed scenario yields a :class:`SweepError` in its slot; the
        other scenarios are unaffected. Content-identical scenarios
        (same cache key) within one sweep execute once and the result is
        fanned back to every submission slot (``deduped`` in stats).
        Scenarios with tracing or profiling enabled bypass both the
        cache and the dedup (their :class:`~repro.obs.export.Trace` /
        :class:`~repro.prof.profiler.SimProfile` artifact lives on the
        Host and cannot be replayed from a shared summary).
        """
        total = len(scenarios)
        results: list[Union[ScenarioSummary, SweepError, None]] = [None] * total
        started = time.perf_counter()
        cached = failed = done = deduped = 0
        events = 0
        busy = 0.0
        busy_by_pid: dict[str, float] = {}

        def emit() -> None:
            if self.progress is not None:
                self.progress(
                    SweepProgress(
                        done=done,
                        total=total,
                        cached=cached,
                        failed=failed,
                        events_processed=events,
                        elapsed_seconds=time.perf_counter() - started,
                        deduped=deduped,
                        busy_seconds=busy,
                        workers=self.max_workers,
                    )
                )

        # Phase 1: key the batch. Traced and profiled scenarios keep
        # their own run (their artifact is not shareable), so they get
        # no key: they neither dedupe nor cache. The scenarios of one
        # sweep share sub-objects (app lists, device models, control
        # configs), and one memo renders each of those once. The memo
        # is keyed by id(), so it lives only for this loop: the batch
        # keeps every keyed object alive and nothing else runs in it.
        memo: dict = {}
        keys: list[str | None] = [
            scenario_key(scenario, memo)
            if scenario.trace is None and scenario.prof is None
            else None
            for scenario in scenarios
        ]
        del memo

        # Phase 2: cache lookups and in-sweep dedup. Content-identical
        # scenarios (same cache key -- search loops naturally re-propose
        # candidates) collapse onto one *primary* execution; the other
        # slots become followers and are filled from the primary's
        # result.
        to_run: list[int] = []
        primary_of_key: dict[str, int] = {}
        followers: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            if key is not None:
                if self.cache is not None:
                    hit = self.cache.get(key)
                    if hit is not None:
                        results[index] = hit
                        cached += 1
                        done += 1
                        emit()
                        continue
                primary = primary_of_key.get(key)
                if primary is not None:
                    followers.setdefault(primary, []).append(index)
                    continue
                primary_of_key[key] = index
            to_run.append(index)

        # Phase 3: execute the misses.
        def note_busy(meta) -> None:
            nonlocal busy
            if meta is None:
                return
            pid, seconds = meta
            busy += seconds
            key = str(pid)
            busy_by_pid[key] = busy_by_pid.get(key, 0.0) + seconds

        def record(index: int, payload) -> None:
            nonlocal done, failed, events, deduped
            fanout = [index, *followers.get(index, ())]
            if payload[0] == "ok":
                _, summary, meta = payload
                note_busy(meta)
                events += summary.events_processed
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], summary, scenario=scenarios[index])
                for slot in fanout:
                    results[slot] = summary
            else:
                _, error, tb_text, meta = payload
                note_busy(meta)
                for slot in fanout:
                    results[slot] = SweepError(
                        scenario_name=scenarios[slot].name,
                        error=error,
                        traceback_text=tb_text,
                    )
                # Only the primary actually executed and failed; its
                # followers count as deduped (they hold the same error).
                failed += 1
            done += len(fanout)
            deduped += len(fanout) - 1
            emit()

        if self.max_workers == 1:
            for index in to_run:
                record(index, _run_in_worker(scenarios[index]))
        elif to_run:
            pool = self._ensure_pool()
            pending = {
                pool.submit(_run_in_worker, scenarios[index]): index
                for index in to_run
            }
            broken = False
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        broken = broken or isinstance(exc, BrokenProcessPool)
                        # Pool-level failure (e.g. the scenario did not
                        # pickle, or the worker died): same structured
                        # reporting as an in-scenario exception.
                        payload = (
                            "err",
                            repr(exc),
                            "".join(
                                traceback.format_exception(
                                    type(exc), exc, exc.__traceback__
                                )
                            ),
                            None,  # no worker-side accounting survived
                        )
                    else:
                        payload = future.result()
                    record(index, payload)
            if broken:
                # A dead worker breaks its pool for good: drop it so the
                # next sweep on this executor starts a fresh one.
                self.close()

        self.stats.sweeps += 1
        self.stats.cached += cached
        self.stats.failed += failed
        self.stats.deduped += deduped
        # executed + failed == primaries run; + cached + deduped == total.
        self.stats.executed += len(to_run) - failed
        self.stats.events_processed += events
        self.stats.elapsed_seconds += time.perf_counter() - started
        self.stats.busy_seconds += busy
        for pid, seconds in busy_by_pid.items():
            self.stats.worker_busy[pid] = self.stats.worker_busy.get(pid, 0.0) + seconds
        return results  # type: ignore[return-value]

    def run_strict(self, scenarios: Sequence[Scenario]) -> list[ScenarioSummary]:
        """Run a sweep; raise :class:`SweepFailure` on the first error.

        The semantics the figure/table modules want: any failed scenario
        is a bug in the experiment definition, not a partial result.
        """
        results = self.run(scenarios)
        for item in results:
            if isinstance(item, SweepError):
                raise SweepFailure(item)
        return results  # type: ignore[return-value]

    def run_one(self, scenario: Scenario) -> ScenarioSummary:
        """Single-scenario convenience wrapper around :meth:`run_strict`."""
        return self.run_strict([scenario])[0]


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------
# The figure/table entry points accept an ``executor=`` keyword but
# default to this process-global instance so existing call sites (tests,
# examples, benches) keep working unchanged. The built-in default is the
# serial, uncached path -- byte-for-byte the old behaviour; the CLI and
# the benchmark conftest install parallel/cached executors.
_default_executor: SweepExecutor | None = None


def default_executor() -> SweepExecutor:
    """The process-global executor (serial + uncached unless installed)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor(max_workers=1, cache=None)
    return _default_executor


def set_default_executor(executor: SweepExecutor | None) -> SweepExecutor | None:
    """Install (or with None: reset) the process-global executor."""
    global _default_executor
    previous = _default_executor
    _default_executor = executor
    return previous


@contextmanager
def use_executor(executor: SweepExecutor):
    """Scoped :func:`set_default_executor` (used by tests and benches)."""
    previous = set_default_executor(executor)
    try:
        yield executor
    finally:
        set_default_executor(previous)


def resolve_executor(executor: SweepExecutor | None) -> SweepExecutor:
    """``executor`` if given, else the process-global default."""
    return executor if executor is not None else default_executor()
