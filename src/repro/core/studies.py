"""The study registry: one record per study subcommand.

Each study -- Table I, D5 robustness, D6 ``tune``, D7 ``place``, D8
``ctl``, D9 surrogates -- has a settings dataclass with ``mini``/``quick``
/default levels and an entry point returning a result with ``render()``
and ``to_json_dict()``. ``isol-bench`` generates its study subcommands
from :data:`STUDIES` and ``tests/integration/test_studies.py``
parametrizes over it. Study modules are imported on first use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Study:
    """Where one study's settings levels and entry point live."""

    #: Subcommand name (``isol-bench <name>``).
    name: str
    #: Module under :mod:`repro.core` with the settings and entry point.
    module: str
    #: The settings dataclass, built bare at the default level.
    settings_class: str
    #: The entry point, called as ``entry(settings=, executor=, **inputs)``.
    entry: str
    #: What the ``wrote <noun> JSON: <path>`` line calls the result
    #: document; None when the subcommand writes no JSON.
    noun: str | None
    #: Effort levels the subcommand offers as flags (``--quick``, ...).
    levels: tuple[str, ...] = ("quick", "mini")

    def _module(self):
        """The study module, imported on first use."""
        return importlib.import_module(f"repro.core.{self.module}")

    def settings(self, level: str = "default"):
        """The settings at ``level``: ``default``, ``quick`` or ``mini``."""
        if level == "default":
            return getattr(self._module(), self.settings_class)()
        return getattr(self._module(), f"{level}_settings")()

    def run(self, settings, executor=None, **inputs):
        """Run the study's entry point on ``settings``; return its result."""
        entry = getattr(self._module(), self.entry)
        return entry(settings=settings, executor=executor, **inputs)


#: Every study, by subcommand name, in ``isol-bench --help`` order.
STUDIES: dict[str, Study] = {
    study.name: study
    for study in (
        Study(
            "table1",
            "table_one",
            "TableOneSettings",
            "evaluate_table_one",
            noun=None,
            levels=("quick",),
        ),
        Study(
            "d5", "d5_robustness", "RobustnessSettings", "evaluate_robustness", "ranking"
        ),
        Study("tune", "d6_autotune", "AutotuneSettings", "evaluate_autotune", "advisor"),
        Study(
            "place",
            "d7_placement",
            "PlacementSettings",
            "compare_placements",
            "placement",
        ),
        Study(
            "ctl",
            "d8_online",
            "OnlineControlSettings",
            "evaluate_online_control",
            "control matrix",
        ),
        Study(
            "d9",
            "d9_surrogate",
            "SurrogateStudySettings",
            "evaluate_surrogate_study",
            "study",
        ),
    )
}
