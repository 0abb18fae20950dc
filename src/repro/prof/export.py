"""Profile exporters: text table, pstats dump, Chrome trace.

Mirrors :mod:`repro.obs.export` conventions: plain functions taking the
artifact and a path. The pstats dump is loadable with the standard
library (``pstats.Stats("profile.pstats")``) so existing profiling
tooling — ``sort_stats``, snakeviz, gprof2dot — works on simulator
phases; the Chrome export merges with a request-span
:class:`~repro.obs.export.Trace` so profiler series and request
timelines render side by side in Perfetto.
"""

from __future__ import annotations

import json
import marshal

from repro.prof.profiler import SimProfile

#: Viewer process id for profiler counter tracks. repro.obs uses pid 0
#: for the stack sampler and 1..N for apps; 10_000 keeps clear of both.
PROF_PID = 10_000

#: Pseudo-filename for pstats entries (pstats prints it as-is; the
#: leading "~" sorts synthetic entries last, as cProfile does for
#: builtins).
_PSTATS_FILE = "~repro.prof"


def format_phase_table(profile: SimProfile) -> str:
    """Render the per-phase breakdown as aligned text.

    ``self s`` is the phase's exclusive wall-clock; ``events`` counts
    the fired callbacks whose code the phase owns.
    """
    lines = [f"{'phase':<12s} {'events':>10s} {'self s':>9s} {'%loop':>7s}"]
    loop = profile.loop_wall_seconds
    ordered = sorted(
        profile.phase_wall.items(), key=lambda item: item[1], reverse=True
    )
    for phase, wall in ordered:
        events = profile.phase_events.get(phase, 0)
        pct = 100.0 * wall / loop if loop > 0 else 0.0
        lines.append(f"{phase:<12s} {events:>10,d} {wall:>9.3f} {pct:>6.1f}%")
    lines.append(
        f"{'loop total':<12s} {profile.events_accounted:>10,d} {loop:>9.3f} "
        f"(coverage {100.0 * profile.coverage():.1f}%)"
    )
    return "\n".join(lines)


def write_pstats(profile: SimProfile, path: str) -> None:
    """Write a ``pstats.Stats``-loadable dump, one entry per phase.

    Each phase becomes a synthetic function ``(~repro.prof, 0, phase)``
    with call count = events fired in that phase and total/cumulative
    time = the phase's self wall-clock seconds (phases are exclusive,
    so tt == ct).
    """
    stats: dict = {}
    for phase, wall in profile.phase_wall.items():
        events = max(1, profile.phase_events.get(phase, 0))
        stats[(_PSTATS_FILE, 0, phase)] = (events, events, wall, wall, {})
    with open(path, "wb") as fh:
        marshal.dump(stats, fh)


def chrome_profile_events(profile: SimProfile) -> list[dict]:
    """Build Chrome ``traceEvents`` for a profile.

    Each phase becomes a counter track (``prof.<phase>``) on the
    profiler's viewer process, with one sample at t=0 carrying the
    phase's self wall-clock in milliseconds.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": PROF_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "engine profiler (wall-clock ms)"},
        }
    ]
    for phase, wall in sorted(profile.phase_wall.items()):
        events.append(
            {
                "ph": "C",
                "name": f"prof.{phase}",
                "pid": PROF_PID,
                "tid": 0,
                "ts": 0,
                "args": {"value": wall * 1e3},
            }
        )
    return events


def write_chrome_trace(profile: SimProfile, path: str, trace=None) -> None:
    """Write a Perfetto-loadable JSON document for a profile.

    Pass the run's :class:`~repro.obs.export.Trace` as ``trace`` to
    merge request spans, sampler counters and profiler counters into
    one timeline document.
    """
    events = chrome_profile_events(profile)
    other_data: dict = {"profile": "repro.prof"}
    if trace is not None:
        from repro.obs.export import chrome_trace_events

        events = chrome_trace_events(trace) + events
        other_data.update(trace.meta)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
