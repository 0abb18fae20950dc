"""Unit tests for the simulator self-profiler (repro.prof).

The contract under test:

* attribution is exclusive: each function's self time goes to the phase
  of the module that owns its code, and the breakdown covers (>= 90%
  of) the loop wall-clock;
* the fired events are counted per phase, one per event the engine
  fired, on the engine core and on the heap oracle alike;
* a callback that raises leaves no profiler enabled;
* profiling NEVER changes simulation results (bit-identical summary
  vs an unprofiled run);
* the exports load with their standard consumers (``pstats.Stats``,
  Chrome trace JSON).
"""

import json
import os
import pstats
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.core.config import MqDeadlineKnob, Scenario
from repro.core.runner import run_scenario
from repro.exec.summary import run_scenario_summary
from repro.metrics.latency import seq_sum
from repro.obs import TraceConfig
from repro.prof import (
    PHASES,
    ProfConfig,
    format_phase_table,
    phase_of_code,
    profile_run,
    write_chrome_trace,
    write_pstats,
)
from repro.prof.export import PROF_PID, chrome_profile_events
from repro.prof.phases import phase_of_filename
from repro.sim.engine import Simulator
from repro.workloads.apps import batch_app, lc_app

from tests.differential.oracle import HeapSimulator


def tiny_scenario(prof=None, trace=None, seed=7) -> Scenario:
    """A fast mixed scenario touching dispatch, device and metrics."""
    return Scenario(
        name="prof-tiny",
        knob=MqDeadlineKnob(classes={"/t/a": "realtime"}),
        apps=[batch_app("a", "/t/a", queue_depth=8), lc_app("b", "/t/b")],
        duration_s=0.05,
        warmup_s=0.01,
        seed=seed,
        device_scale=16.0,
        prof=prof,
        trace=trace,
    )


class TestPhases:
    def test_fragment_mapping(self):
        assert phase_of_filename("/x/src/repro/iocontrol/dispatch.py") == "dispatch"
        assert phase_of_filename("/x/src/repro/iocontrol/iomax.py") == "throttle"
        assert phase_of_filename("/x/src/repro/ssd/device.py") == "device"
        assert phase_of_filename("/x/src/repro/sim/resources.py") == "sim"
        assert phase_of_filename("/x/src/repro/sim/engine.py") == "sim"
        assert phase_of_filename("/x/src/repro/faults/injector.py") == "faults"
        assert phase_of_filename("/x/src/repro/ctl/plane.py") == "ctl"
        assert phase_of_filename("/x/src/repro/ctl/controllers.py") == "ctl"
        assert phase_of_filename("/home/user/random.py") == "other"

    def test_windows_paths_normalize(self):
        assert phase_of_filename("C:\\src\\repro\\metrics\\collector.py") == "metrics"

    def test_phase_of_code(self):
        assert phase_of_code(tiny_scenario.__code__) == "other"

    def test_every_fragment_phase_is_in_taxonomy(self):
        from repro.prof.phases import _FRAGMENT_PHASES

        assert {phase for _, phase in _FRAGMENT_PHASES} <= set(PHASES)


class TestProfiledRun:
    def test_profile_none_when_off(self):
        assert run_scenario(tiny_scenario()).profile is None

    def test_breakdown_covers_loop_wall(self):
        result = run_scenario(tiny_scenario(prof=ProfConfig()))
        profile = result.profile
        # The acceptance bar: phases must explain >= 90% of the loop.
        assert profile.coverage() >= 0.9
        assert profile.loop_wall_seconds > 0
        assert profile.phase_wall["sim"] > 0
        assert set(profile.phase_wall) <= set(PHASES)
        # This scenario exercises the dispatch + device pipeline.
        assert profile.phase_wall["device"] > 0
        assert profile.phase_wall["dispatch"] > 0

    def test_counters_match_engine(self):
        result = run_scenario(tiny_scenario(prof=ProfConfig()))
        profile = result.profile
        assert profile.counters["events.fired"] == result.events_processed
        assert profile.events_accounted == result.events_processed
        assert profile.counters["events.scheduled"] >= profile.counters["events.fired"]

    def test_bit_identical_to_unprofiled_run(self):
        plain = run_scenario_summary(tiny_scenario())
        profiled = run_scenario_summary(tiny_scenario(prof=ProfConfig()))
        assert plain.content_equal(profiled)

    def test_profiled_and_traced_together(self):
        result = run_scenario(
            tiny_scenario(
                prof=ProfConfig(), trace=TraceConfig(sample_period_us=2_000.0)
            )
        )
        profile = result.profile
        assert result.trace is not None
        # The sampler's periodic emission fires as events -> obs phase.
        assert profile.phase_wall.get("obs", 0.0) > 0
        assert profile.counters["obs.spans"] == len(result.trace.spans)
        assert profile.counters["obs.samples"] == len(result.trace.samples)


class _Recorder:
    """Owns a bound-method callback (this module, phase ``other``)."""

    def __init__(self):
        self.fired = 0

    def tick(self, step=1):
        self.fired += step


class TestExclusiveAttribution:
    def test_callee_self_time_goes_to_the_callee_module(self):
        # The callback is this module's (``other``); the work it does is
        # seq_sum's loop (``metrics``). An inclusive profiler charges it
        # all to the callback, an exclusive one to the loop.
        values = [1.0] * 1_000_000
        sim = Simulator()
        sim.schedule(1.0, lambda: seq_sum(values))
        profile = profile_run(sim, 10.0)
        assert profile.phase_events == {"other": 1}
        total = sum(profile.phase_wall.values())
        assert profile.phase_wall["metrics"] > 0.8 * total

    @pytest.mark.parametrize(
        "core", [Simulator, HeapSimulator], ids=["wheel", "oracle"]
    )
    def test_each_fired_event_is_counted_once(self, core):
        sim = core()
        recorder = _Recorder()

        def chain(left=50):
            if left:
                sim.schedule(3.0, lambda: chain(left - 1))

        sim.schedule(1.0, chain)
        sim.schedule(2.0, recorder.tick)
        sim.schedule(2.0, partial(recorder.tick, 2))
        sim.cancel(sim.schedule(4.0, recorder.tick))
        # Far in the future, after the cancelled entry is popped.
        sim.schedule(50_000.0, recorder.tick)
        profile = profile_run(sim, 100_000.0)
        assert recorder.fired == 4
        assert profile.events_accounted == sim.events_processed == 54
        assert profile.phase_events == {"other": 54}
        assert profile.counters["events.cancelled"] == 1
        assert sim.now == 100_000.0

    def test_a_raising_callback_leaves_no_profiler_enabled(self):
        def boom():
            raise RuntimeError("boom")

        sim = Simulator()
        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            profile_run(sim, 10.0)
        assert sys.getprofile() is None
        # 3.12+ profiles through sys.monitoring, where a profiler left
        # enabled makes the next enable() raise.
        monitoring = getattr(sys, "monitoring", None)
        if monitoring is not None:
            assert monitoring.get_tool(monitoring.PROFILER_ID) is None
        again = Simulator()
        again.schedule(1.0, lambda: None)
        assert profile_run(again, 10.0).events_accounted == 1


def test_study_modules_load_no_profiler():
    """Only a profiled run imports cProfile; loading a study never does.

    The modules are the ones perfbench's three workloads import, so
    their start-up cost stays free of the profiler's.
    """
    program = (
        "import sys\n"
        "import repro.core.table_one, repro.core.d8_online, repro.core.d9_surrogate\n"
        "print(sorted({'cProfile', '_lsprof', 'profile', 'pstats'} & set(sys.modules)))"
    )
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestExports:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_scenario(tiny_scenario(prof=ProfConfig())).profile

    def test_format_phase_table(self, profile):
        text = format_phase_table(profile)
        assert "loop total" in text
        assert "sim" in text
        assert "coverage" in text

    def test_pstats_roundtrip(self, profile, tmp_path):
        path = tmp_path / "profile.pstats"
        write_pstats(profile, str(path))
        stats = pstats.Stats(str(path))
        names = {name for (_, _, name) in stats.stats}
        assert "device" in names
        assert "sim" in names
        total_tt = sum(entry[2] for entry in stats.stats.values())
        assert total_tt == pytest.approx(sum(profile.phase_wall.values()))

    def test_chrome_trace_structure(self, profile, tmp_path):
        path = tmp_path / "profile.trace.json"
        write_chrome_trace(profile, str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(e["pid"] == PROF_PID for e in counters)
        assert {e["name"] for e in counters} == {
            f"prof.{phase}" for phase in profile.phase_wall
        }

    def test_chrome_trace_merges_obs_trace(self, tmp_path):
        result = run_scenario(
            tiny_scenario(prof=ProfConfig(), trace=TraceConfig(sample_period_us=0.0))
        )
        path = tmp_path / "merged.trace.json"
        write_chrome_trace(result.profile, str(path), trace=result.trace)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        prof_only = len(chrome_profile_events(result.profile))
        assert len(events) > prof_only  # request spans came along
        assert document["otherData"]["scenario"] == "prof-tiny"

    def test_json_dict_is_json_serializable(self, profile):
        encoded = json.dumps(profile.to_json_dict())
        decoded = json.loads(encoded)
        assert decoded["coverage"] == pytest.approx(profile.coverage())
