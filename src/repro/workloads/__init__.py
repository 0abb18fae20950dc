"""fio-like workload generation.

:class:`~repro.workloads.spec.JobSpec` is the equivalent of an fio job
file: direction mix, request size, access pattern, queue depth, optional
rate limit, and one or more activity windows (for the staggered
start/stop timelines of Fig. 2 and the burst scenarios of §VI-C).

:mod:`repro.workloads.apps` provides the paper's three app archetypes
(§II-A): LC-apps (QD=1 4 KiB random reads, tail-latency sensitive),
batch-apps (QD=256 4 KiB random reads, bandwidth hungry) and BE-apps
(best effort, no requirements).

:class:`~repro.workloads.generator.App` is the runtime driver: a
closed-loop issuer that keeps ``queue_depth`` requests outstanding,
honouring rate limits and activity windows, or an open-loop one that
issues on a Poisson arrival chain per arrival phase.
"""

from repro.workloads.spec import JobSpec, ActivityWindow, ArrivalPhase
from repro.workloads.apps import lc_app, batch_app, be_app
from repro.workloads.generator import App
from repro.workloads.patterns import (
    churn_windows,
    diurnal_phases,
    flash_crowd_phases,
)

__all__ = [
    "JobSpec",
    "ActivityWindow",
    "ArrivalPhase",
    "lc_app",
    "batch_app",
    "be_app",
    "App",
    "churn_windows",
    "diurnal_phases",
    "flash_crowd_phases",
]
