"""repro.exec: parallel sweep execution with content-addressed caching.

Every paper artifact (Table I, Figs. 2-7, the ablations) is a sweep of
independent :class:`~repro.core.config.Scenario` runs. This package
makes those sweeps scale with cores and survive re-runs:

* :class:`~repro.exec.summary.ScenarioSummary` -- a compact, picklable,
  JSON-able distillation of a run (per-app completion series, CPU
  report, engine counters) that supports every accessor the figure and
  table modules consume, without the live ``Host``;
* :mod:`~repro.exec.cachekey` -- a canonical recursive serialization of
  ``Scenario`` hashed with SHA-256 plus a schema-version salt;
* :class:`~repro.exec.cache.ResultCache` -- a content-addressed on-disk
  store (``.isolbench-cache/``) keyed by that hash;
* :class:`~repro.exec.executor.SweepExecutor` -- fans scenarios over a
  ``ProcessPoolExecutor`` (serial fallback for ``max_workers=1``),
  returns summaries in submission order, captures per-scenario failures
  as :class:`~repro.exec.executor.SweepError`, and reports
  ``k/n done, m cached, events/sec`` progress.
"""

from repro.exec.cache import CacheStats, ResultCache, default_cache_dir
from repro.exec.cachekey import SCHEMA_VERSION, canonical_text, scenario_key
from repro.exec.executor import (
    ExecutorStats,
    SweepError,
    SweepExecutor,
    SweepFailure,
    SweepProgress,
    default_executor,
    resolve_executor,
    set_default_executor,
    use_executor,
)
from repro.exec.summary import ScenarioSummary, run_scenario_summary, summarize

__all__ = [
    "CacheStats",
    "ExecutorStats",
    "resolve_executor",
    "ResultCache",
    "SCHEMA_VERSION",
    "ScenarioSummary",
    "SweepError",
    "SweepExecutor",
    "SweepFailure",
    "SweepProgress",
    "canonical_text",
    "default_cache_dir",
    "default_executor",
    "run_scenario_summary",
    "scenario_key",
    "set_default_executor",
    "summarize",
    "use_executor",
]
