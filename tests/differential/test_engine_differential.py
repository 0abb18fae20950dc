"""Engine differential suite: slot wheel vs the test-local heap oracle.

Every D1-D6 mini scenario runs twice: once on the engine as shipped
(the slot wheel) and once with :class:`~tests.differential.oracle.HeapSimulator`
substituted at the ``Host`` seam (``repro.core.host.Simulator``). The
resulting :class:`~repro.exec.summary.ScenarioSummary` documents must be
**bit-identical** — same JSON text, not approximately equal. The same
bar is held across process boundaries: a 2-worker spawned
:class:`~repro.exec.executor.SweepExecutor` must reproduce the serial
summaries exactly.

Run just this suite with::

    PYTHONPATH=src python -m pytest tests/differential -q
"""

from __future__ import annotations

import json

import pytest

from repro.exec.executor import SweepExecutor
from repro.exec.summary import run_scenario_summary

from tests.differential.oracle import HeapSimulator
from tests.differential.scenarios import MINI_BUILDERS

CASES = sorted(MINI_BUILDERS)


def _summary_json(scenario) -> str:
    """Canonical JSON text of one run's deterministic content."""
    summary = run_scenario_summary(scenario)
    return json.dumps(summary.content_dict(), sort_keys=True)


class TestSerialDifferential:
    """Each mini, wheel and oracle, one process: identical summary JSON."""

    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical(self, case, monkeypatch):
        build = MINI_BUILDERS[case]
        wheel = _summary_json(build())

        built: list[HeapSimulator] = []

        class RecordingHeap(HeapSimulator):
            def __init__(self) -> None:
                super().__init__()
                built.append(self)

        monkeypatch.setattr("repro.core.host.Simulator", RecordingHeap)
        oracle = _summary_json(build())
        # The comparison only means something if the seam substituted.
        assert built, f"{case}: the oracle never built a host"
        assert sum(sim.events_processed for sim in built) > 0
        assert wheel == oracle, f"{case}: wheel and heap oracle diverge"


class TestSpawnDifferential:
    """A 2-worker spawned sweep reproduces the serial summaries exactly."""

    def test_spawned_sweeps_match_serial_and_each_other(self):
        scenarios = [MINI_BUILDERS[case]() for case in CASES]
        with SweepExecutor(max_workers=2) as pool:
            summaries = pool.run_strict(scenarios)
            assert pool.stats.executed > 0
        spawned = [
            json.dumps(summary.content_dict(), sort_keys=True)
            for summary in summaries
        ]
        serial = [_summary_json(MINI_BUILDERS[case]()) for case in CASES]
        assert spawned == serial
