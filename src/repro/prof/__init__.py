"""repro.prof: simulator self-observability and continuous benchmarking.

Where :mod:`repro.obs` answers "where does a *request's* latency go?",
``repro.prof`` answers "where does the *simulator's* wall-clock time
go?": a hot-path change is only a win if the exclusive per-layer
breakdown says so.

Two layers:

* :func:`profile_run` — runs the plain event loop under ``cProfile``
  and folds each function's self time onto a phase of the request
  pipeline (event loop, workload issue, throttle decision, scheduler
  dispatch, device service, fault injection, obs emission, …) by the
  module that owns its code, plus per-phase fired-event counts and
  engine counters. Enable by passing ``prof=ProfConfig()`` to a
  :class:`~repro.core.config.Scenario`; read the :class:`SimProfile`
  back from ``ScenarioResult.profile``. With ``prof=None`` (the
  default) the host runs the same loop without a profiler and
  ``cProfile`` is never imported — the same pay-for-what-you-use
  contract :mod:`repro.obs` honours, guarded by the same overhead
  benchmark.
* :mod:`repro.prof.bench` — a pinned benchmark suite (``isol-bench
  bench``) over representative scenarios, emitting ``BENCH_<n>.json``
  trajectory files and comparing runs against the committed trajectory
  with machine-normalized paired-median thresholds.

Exporters mirror :mod:`repro.obs.export` conventions: JSON documents, a
pstats-compatible dump loadable by :class:`pstats.Stats`, and Chrome
Trace Event Format that merges with a request-span timeline.
"""

from repro.prof.config import ProfConfig
from repro.prof.export import (
    format_phase_table,
    write_chrome_trace,
    write_pstats,
)
from repro.prof.phases import PHASES, phase_of_code
from repro.prof.profiler import SimProfile, profile_run

__all__ = [
    "ProfConfig",
    "SimProfile",
    "profile_run",
    "PHASES",
    "phase_of_code",
    "format_phase_table",
    "write_pstats",
    "write_chrome_trace",
]
