"""Profiler opt-in marker.

A scenario opts into self-profiling by setting ``Scenario.prof`` to a
:class:`ProfConfig`; the default (``None``) keeps the subsystem fully
dormant: cProfile is never imported and the host runs the plain event
loop (``tests/unit/test_obs_overhead.py`` guards that loop).
Profiling never changes simulation *results* — only how the run is
timed — which the bit-identity tests in ``tests/unit/test_prof.py``
pin down for both serial and multi-worker execution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProfConfig:
    """Profile this scenario's run (see :func:`repro.prof.profile_run`).

    Field-less on purpose: a dataclass rather than a ``bool`` so that
    ``Scenario.prof=None`` renders, and therefore keys and caches,
    exactly as it always has.
    """
