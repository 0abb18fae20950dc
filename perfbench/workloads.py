"""The three benchmark workloads, sized through the study settings.

Each workload names the study entry point it drives, how its settings
derive from the workload seed, which modules set-up imports, and
whether set-up fills the cache cold before the timed section. Why each
workload exists, and what it stresses, is in README.md.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import Callable

@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Modules set-up imports, so no import lands in the timed section.
    modules: tuple[str, ...]
    #: ``settings(seed)`` -> the study settings object.
    settings: Callable
    #: ``study(settings, executor)`` -> the study result.
    study: Callable
    #: ``doc(result)`` -> the study JSON, without wall-clock fields.
    doc: Callable
    #: True: set-up runs the study cold; the timed section re-runs it
    #: warm ``passes`` times. False: the timed section runs it cold once.
    warm: bool = False
    passes: int = 1

    def load(self) -> None:
        """Import every module the workload touches."""
        for name in self.modules:
            importlib.import_module(name)


# ----------------------------------------------------------------------
# table1-cold
# ----------------------------------------------------------------------
def _table1_settings(seed: int):
    from repro.core.table_one import TableOneSettings

    # Every stage of the pipeline (D1-D4 over all five knobs plus
    # none); durations cut until the sweep takes a few seconds.
    # burst_duration_s must stay above the fixed 2 s burst start.
    return TableOneSettings(
        duration_s=0.02,
        warmup_s=0.01,
        fairness_duration_s=0.03,
        iolatency_duration_s=0.15,
        burst_duration_s=2.1,
        device_scale=16.0,
        burst_device_scale=64.0,
        sweep_points=2,
        seed=seed,
    )


def _table1_study(settings, executor):
    from repro.core.table_one import evaluate_table_one

    return evaluate_table_one(settings, executor=executor)


def _table1_doc(table) -> dict:
    return {
        "verdicts": {
            row.knob: [cell.symbol for cell in row.cells()] for row in table.rows
        },
        "matches_paper": table.matches_paper(),
        "inputs": {
            knob: dataclasses.asdict(inputs)
            for knob, inputs in sorted(table.inputs.items())
        },
    }


# ----------------------------------------------------------------------
# ctl-replay
# ----------------------------------------------------------------------
def _ctl_settings(seed: int):
    from repro.core.d8_online import OnlineControlSettings

    # The flash-crowd-gc column only: three controllers x static/online
    # under GC-storm faults and phased open-loop arrivals.
    return OnlineControlSettings(
        patterns=("flash-crowd-gc",),
        duration_s=0.8,
        warmup_s=0.2,
        seed=seed,
    )


def _ctl_study(settings, executor):
    from repro.core.d8_online import evaluate_online_control

    return evaluate_online_control(settings, executor=executor)


# ----------------------------------------------------------------------
# d9-warm
# ----------------------------------------------------------------------
def _d9_settings(seed: int):
    from repro.core.d9_surrogate import SurrogateStudySettings, mini_settings

    # One knob of the mini study, at the study's default pool factor
    # (64) rather than the mini 16. Fit and ranking cost does not shrink
    # with duration_s, so short scenarios cut the cold fill in set-up
    # without emptying the timed section.
    return dataclasses.replace(
        mini_settings(),
        knobs=("io.cost",),
        pool_factor=SurrogateStudySettings.pool_factor,
        duration_s=0.05,
        warmup_s=0.02,
        seed=seed,
    )


def _d9_study(settings, executor):
    from repro.core.d9_surrogate import evaluate_surrogate_study

    return evaluate_surrogate_study(settings, executor=executor)


_ENGINE = ("repro.exec", "repro.core.runner", "repro.core.host")

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="table1-cold",
            modules=_ENGINE + ("repro.core.table_one", "repro.tools.iocost_coef_gen"),
            settings=_table1_settings,
            study=_table1_study,
            doc=_table1_doc,
        ),
        Workload(
            name="ctl-replay",
            modules=_ENGINE + ("repro.core.d8_online",),
            settings=_ctl_settings,
            study=_ctl_study,
            doc=lambda table: table.to_json_dict(),
            warm=True,
            passes=90,
        ),
        Workload(
            name="d9-warm",
            modules=_ENGINE + ("repro.core.d9_surrogate",),
            settings=_d9_settings,
            study=_d9_study,
            doc=lambda report: report.to_json_dict(),
            warm=True,
        ),
    )
}
