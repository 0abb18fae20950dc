"""Phase taxonomy: which stage of the request pipeline owns a function.

The profiler charges each function's self time, and each fired event,
to a *phase* by the module that owns the function's code object. The
stack layers live in separate packages, so "which module owns this
code" is exactly "which pipeline stage is running".

The taxonomy (stable names; new modules fall into ``other``):

========== ===========================================================
phase      what runs there
========== ===========================================================
sim        the event loop, the RNG streams and the queued servers that
           model CPU cores, flash units, the bus and dispatch locks
           (repro.sim)
workload   app request issue / completion handling (repro.workloads)
cpu        per-I/O submit/complete CPU cost accounting (repro.cpu)
throttle   cgroup controller decisions: io.max token refills,
           io.latency window evaluation, io.cost vtime accounting
           (repro.iocontrol.{iomax,iolatency,iocost,base,dynamic_iomax})
dispatch   scheduler dispatch: lock section, mq-deadline/bfq pop logic
           (repro.iocontrol.{dispatch,mq_deadline,bfq,nonectl})
device     device service-cost computation (repro.ssd)
faults     fault injection + retry/watchdog machinery (repro.faults)
ctl        online control plane: SLO scoring, controller steps and
           actuation (repro.ctl)
obs        span recording + stack-sampler emission (repro.obs)
pagecache  buffered-I/O page-cache machinery (repro.fs)
host       host-level glue (repro.core.host)
metrics    metrics collection (repro.metrics)
other      anything else (stdlib, tests, examples, ad-hoc callbacks)
========== ===========================================================
"""

from __future__ import annotations

#: Phase name -> one-line description (docs + table rendering order).
PHASES: dict[str, str] = {
    "sim": "event loop + queued servers",
    "workload": "app request issue/completion",
    "cpu": "per-I/O CPU cost accounting",
    "throttle": "cgroup controller decisions",
    "dispatch": "scheduler dispatch + lock section",
    "device": "device service-cost computation",
    "faults": "fault injection + retry machinery",
    "ctl": "online control plane",
    "obs": "span recording + sampler emission",
    "pagecache": "page-cache machinery",
    "host": "host-level glue",
    "metrics": "metrics collection",
    "other": "uncategorized code",
}

#: Path-fragment -> phase, first match wins (checked in order).
_FRAGMENT_PHASES: tuple[tuple[str, str], ...] = (
    ("repro/sim/", "sim"),
    ("repro/workloads/", "workload"),
    ("repro/cpu/", "cpu"),
    ("repro/iocontrol/dispatch", "dispatch"),
    ("repro/iocontrol/mq_deadline", "dispatch"),
    ("repro/iocontrol/bfq", "dispatch"),
    ("repro/iocontrol/nonectl", "dispatch"),
    ("repro/iocontrol/", "throttle"),
    ("repro/ssd/", "device"),
    ("repro/faults/", "faults"),
    ("repro/ctl/", "ctl"),
    ("repro/obs/", "obs"),
    ("repro/fs/", "pagecache"),
    ("repro/core/host", "host"),
    ("repro/metrics/", "metrics"),
)


def phase_of_filename(filename: str) -> str:
    """Map a code object's ``co_filename`` to a phase name."""
    normalized = filename.replace("\\", "/")
    for fragment, phase in _FRAGMENT_PHASES:
        if fragment in normalized:
            return phase
    return "other"


def phase_of_code(code) -> str:
    """Map a code object to its phase."""
    return phase_of_filename(code.co_filename)
