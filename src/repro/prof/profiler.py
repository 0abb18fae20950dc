"""The simulator self-profiler: exclusive time per pipeline phase.

:func:`profile_run` drives the unchanged
:meth:`~repro.sim.engine.Simulator.run_until` under
:class:`cProfile.Profile` and folds what it measured onto the taxonomy
of :mod:`repro.prof.phases`:

* **Self time.** Each function's ``inlinetime`` — its own bytecode plus
  the C builtins it calls — goes to the phase of the module that owns
  its code. Attribution is exclusive by construction: a callback that
  calls into another layer pays only for its own frames, the way
  ``perf`` charges each cycle to the function running it.
* **Events.** The Python functions the engine's ``_run_core`` calls are
  the fired callbacks, so per-phase event counts come from cProfile's
  caller data. A ``functools.partial`` or a bound method counts as the
  function it calls.

A profiled run costs about 3-4x an unprofiled one. ``cProfile`` is
imported lazily, so unprofiled runs never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.prof.phases import phase_of_code


@dataclass
class SimProfile:
    """Everything one profiled run measured."""

    #: Exclusive (self) wall-clock seconds per phase.
    phase_wall: dict[str, float] = field(default_factory=dict)
    #: Fired events per phase, by the module of the callback's code.
    phase_events: dict[str, int] = field(default_factory=dict)
    #: Engine counters (events scheduled, fired, cancelled, pending),
    #: plus ``obs.spans``/``obs.samples`` when tracing is also on.
    counters: dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds of the profiled ``run_until`` call.
    loop_wall_seconds: float = 0.0

    @property
    def events_accounted(self) -> int:
        """Callbacks attributed to a phase (== events fired in the loop)."""
        return sum(self.phase_events.values())

    def coverage(self) -> float:
        """Fraction of loop wall-clock the phase breakdown accounts for.

        Just under 1.0: every profiled frame's self time is counted, and
        the shortfall is the profiler's own work outside those frames.
        """
        if self.loop_wall_seconds <= 0:
            return 0.0
        return sum(self.phase_wall.values()) / self.loop_wall_seconds

    def to_json_dict(self) -> dict:
        """Plain-dict form (JSON-serializable) for trajectory files."""
        return {
            "phase_wall": dict(sorted(self.phase_wall.items())),
            "phase_events": dict(sorted(self.phase_events.items())),
            "counters": dict(sorted(self.counters.items())),
            "loop_wall_seconds": self.loop_wall_seconds,
            "coverage": self.coverage(),
        }


def profile_run(sim, end_time_us: float) -> SimProfile:
    """``sim.run_until(end_time_us)`` under cProfile, folded onto phases.

    The run is :meth:`run_until` itself, so firing order and the final
    clock, and with them every simulation result, are those of an
    unprofiled run. The profiler is disabled in a ``finally``: a
    callback that raises leaves no profiler enabled behind it.
    """
    import cProfile

    # builtins=False: C functions get no entries of their own (every
    # entry's code is a code object), and their time stays in the self
    # time of the Python frame that called them.
    profiler = cProfile.Profile(builtins=False)
    start = perf_counter()
    profiler.enable()
    try:
        sim.run_until(end_time_us)
    finally:
        profiler.disable()
    loop_wall = perf_counter() - start

    loop = type(sim)._run_core.__code__
    phase_wall: dict[str, float] = {}
    phase_events: dict[str, int] = {}
    for entry in profiler.getstats():
        phase = phase_of_code(entry.code)
        phase_wall[phase] = phase_wall.get(phase, 0.0) + entry.inlinetime
        if entry.code is not loop:
            continue
        for call in entry.calls or ():
            callee = phase_of_code(call.code)
            phase_events[callee] = phase_events.get(callee, 0) + call.callcount
    return SimProfile(
        phase_wall=phase_wall,
        phase_events=phase_events,
        counters={
            "events.scheduled": float(sim._seq),
            "events.fired": float(sim.events_processed),
            "events.cancelled": float(sim._cancelled_total),
            "events.pending": float(sim.pending_events()),
        },
        loop_wall_seconds=loop_wall,
    )
