"""repro.ctl: online feedback control of cgroup I/O knobs.

Static tuning (D6) picks one configuration; production traffic shifts.
This subsystem closes the paper's §VII loop: a sim-clock control plane
(:mod:`repro.ctl.plane`) subscribes to the :class:`~repro.obs.sampler.
StackSampler` stream, scores each observation window against a tenant
SLO with the same :class:`~repro.tune.slo.SloScore` machinery the tuner
uses, and lets pluggable controllers (:mod:`repro.ctl.controllers`)
rewrite knob sysfs files mid-run: a PID loop on io.max limits, vrate
nudging for io.cost, and target adaptation driving io.latency's QD
throttling. Every decision -- applied or suppressed -- lands in a
decision-trace JSONL for auditability. ``repro.core.d8_online`` and the
``isol-bench ctl`` subcommand evaluate static vs online under
time-varying arrival patterns.
"""

from repro.ctl.base import Actuation, ControlObservation, Controller
from repro.ctl.config import (
    CtlConfig,
    IoMaxCtlParams,
    PidParams,
    QdLimitCtlParams,
    VrateCtlParams,
)
from repro.ctl.controllers import (
    PidIoMaxController,
    QdLimitController,
    VrateController,
)
from repro.ctl.pid import PidState, RateLimiter
from repro.ctl.plane import ControlPlane

__all__ = [
    "Actuation",
    "ControlObservation",
    "Controller",
    "CtlConfig",
    "IoMaxCtlParams",
    "PidParams",
    "QdLimitCtlParams",
    "VrateCtlParams",
    "PidIoMaxController",
    "QdLimitController",
    "VrateController",
    "PidState",
    "RateLimiter",
    "ControlPlane",
]
