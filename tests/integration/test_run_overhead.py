"""Guards on what the simulator's own Python costs per I/O.

At NVMe rates the per-request software path is the ceiling (the paper's
D1), and in this reproduction that path is the simulator's Python. Three
properties of a run are pinned here:

* the ``repro`` Python frames per completed I/O (cProfile, builtins
  excluded) stay within a budget, and the host's per-scenario handlers
  skip what can never act (the retry coordinator without error windows
  or a watchdog, the general submit handler under io.cost alone);
* a finished :func:`~repro.exec.summary.run_scenario_summary` run leaves
  no cyclic garbage at all: its requests, host, simulator and cgroup
  tree are freed by reference counting, not by the cyclic garbage
  collector;
* ``perfbench/tracer.py``'s outside-in layer tracer still finds every
  entry point it wraps, each layer it names stays on the request path,
  and a traced run produces the untraced run's summary.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cpu.cores import CoreSet
from repro.exec.cachekey import scenario_key
from repro.exec.summary import run_scenario_summary
from repro.sim.engine import Simulator

from tests.differential.scenarios import d1_mini, d3_mini, d5_mini, d_none_mini

ROOT = Path(__file__).resolve().parents[2]

#: ``repro`` frames per completed I/O of the unprofiled d1 mini, plus
#: about 5%: 47.9 when the budget was set (64.9 before the request path
#: lost its pass-through hops, closures and per-request scenario tests).
FRAMES_PER_IO_BUDGET = 50.3

#: Comprehensions run as frames up to Python 3.11 and inline from 3.12;
#: leaving them out keeps the count the same on every supported Python.
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def repro_call_counts(scenario):
    """One run under cProfile: ``src/repro`` calls by ``<module>.<function>``.

    Returns the counts and the run's summary. Keys use the module file's
    stem (``host._finish``), so they read the same on every supported
    Python; comprehensions are left out.
    """
    package = os.path.dirname(repro.__file__) + os.sep
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        summary = run_scenario_summary(scenario)
    finally:
        profiler.disable()
    calls: dict[str, int] = {}
    for entry in profiler.getstats():
        code = entry.code
        if (
            not isinstance(code, str)
            and code.co_filename.startswith(package)
            and code.co_name not in _COMPREHENSIONS
        ):
            key = f"{Path(code.co_filename).stem}.{code.co_name}"
            calls[key] = calls.get(key, 0) + entry.callcount
    return calls, summary


def repro_frames_per_io(scenario) -> float:
    """Python frames in ``src/repro`` per completed I/O of one run."""
    calls, summary = repro_call_counts(scenario)
    ios = sum(len(log.times) for log in summary.apps.values())
    assert ios > 0
    return sum(calls.values()) / ios


class TestFrameBudget:
    def test_repro_frames_per_io_within_budget(self):
        scenario = dataclasses.replace(d1_mini(), prof=None)
        per_io = repro_frames_per_io(scenario)
        assert per_io <= FRAMES_PER_IO_BUDGET, (
            f"{per_io:.2f} repro frames per completed I/O, budget "
            f"{FRAMES_PER_IO_BUDGET}"
        )


class TestSubmitHandlers:
    def test_a_gc_storm_never_calls_the_retry_coordinator(self):
        # No error windows and no watchdog: the coordinator cannot act,
        # and only keeps its (zero) counters for the summary.
        calls, summary = repro_call_counts(d5_mini())
        assert calls.get("retry.watch", 0) == 0
        assert calls.get("retry.resolve", 0) == 0
        assert calls.get("host._after_submit_cpu", 0) == 0
        assert calls["host._after_submit_cpu_direct"] > 0
        counters = summary.fault_counters
        assert counters["dev0.storm_windows"] >= 1
        assert counters["retries"] == counters["device_errors"] == 0.0

    def test_iocost_submissions_check_saturation_only(self):
        scenario = dataclasses.replace(d1_mini(), prof=None)
        calls, _ = repro_call_counts(scenario)
        assert calls.get("host._after_submit_cpu", 0) == 0
        assert calls.get("resources.queue_depth", 0) == 0
        checked = calls["host._after_submit_cpu_iocost"]
        assert 0 < checked <= calls["host._submit"]
        assert calls["cores.is_saturated"] == checked


class TestReleasedRun:
    def test_finished_run_leaves_no_cyclic_garbage(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_scenario_summary(d_none_mini())
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sorted(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()
            if enabled:
                gc.enable()
        assert leaked == [], f"cyclic garbage from a finished run: {leaked[:10]}"


#: Runs the d3 mini (io.latency: every layer's entry point on the path)
#: under perfbench's tracer and prints what the tracer saw.
_TRACED_RUN = """
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench", root]
from tests.differential.scenarios import d3_mini
from repro.exec.summary import run_scenario_summary
from tracer import Tracer

tracer = Tracer()
missing = tracer.install()
summary = run_scenario_summary(d3_mini())
print(json.dumps({
    "missing": missing,
    "calls": {name: totals[1] for name, totals in tracer.current.layers.items()},
    "summary": json.dumps(summary.content_dict(), sort_keys=True),
}))
"""


class TestTracerCompatibility:
    """perfbench's tracer wraps classes globally, so it runs in a subprocess."""

    def test_schedule_keeps_two_parameters(self):
        # The tracer wraps it as traced_schedule(sim, delay_us, fn).
        assert list(inspect.signature(Simulator.schedule).parameters) == [
            "self",
            "delay_us",
            "fn",
        ]

    def test_charge_keeps_its_callback_at_index_two(self):
        # The tracer wraps positional argument 2 of CoreSet.charge.
        assert list(inspect.signature(CoreSet.charge).parameters) == [
            "self",
            "cost_us",
            "fn",
            "arg",
        ]

    def test_scenario_key_keeps_its_first_parameter(self):
        # The tracer wraps scenario_key by name as ``exec.key`` and
        # forwards its arguments; a sweep passes its memo second.
        parameters = inspect.signature(scenario_key).parameters
        assert list(parameters) == ["scenario", "memo"]
        assert parameters["memo"].default is None

    def test_traced_run_matches_untraced_and_sees_every_layer(self):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", _TRACED_RUN, str(ROOT)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        # The tracer still lists the removed batch-submit entry points;
        # any other missing name is an entry point that fell off.
        assert report["missing"] == [
            "repro.iocontrol.dispatch.DispatchEngine.submit_batch",
            "repro.ssd.device.SimulatedNvmeDevice.submit_batch",
        ]
        calls = report["calls"]
        for layer in ("cpu", "iocontrol.dispatch", "iocontrol.throttle", "ssd"):
            assert calls.get(layer, 0) > 0, f"{layer} fell off the path: {calls}"
        # A completion callback bound to a wrapped entry point is charged
        # to the tracer's own code, which the tracer reports as ``other``.
        assert "other" not in calls, calls
        untraced = json.dumps(run_scenario_summary(d3_mini()).content_dict(), sort_keys=True)
        assert report["summary"] == untraced
