"""SweepExecutor integration: parallelism, caching, error capture.

The headline guarantees:

* a 2-worker spawned sweep returns summaries bit-identical to a serial
  in-process sweep of the same seeded scenarios (cross-process
  determinism), in submission order;
* a raising scenario becomes a SweepError carrying the worker's
  traceback text while the rest of the sweep completes;
* a worker that dies outright costs its sweep a SweepError, and the
  executor's next sweep runs on a fresh pool;
* a poisoned cache entry is a miss (recompute), never a crash;
* a warm cache executes zero scenarios;
* content-identical scenarios within one sweep execute once, with the
  result fanned back to every submission slot.
"""

import dataclasses
import json
import os
import struct
import zlib

import pytest

from repro.core.config import KnobConfig, MqDeadlineKnob, NoneKnob, Scenario
from repro.exec import (
    ResultCache,
    ScenarioSummary,
    SweepError,
    SweepExecutor,
    SweepFailure,
    SCHEMA_VERSION,
    run_scenario_summary,
    scenario_key,
)
from repro.obs import TraceConfig
from repro.ssd.presets import samsung_980pro_like
from repro.workloads.apps import batch_app


def tiny_scenario(name: str, seed: int = 42, trace=None) -> Scenario:
    return Scenario(
        name=name,
        knob=NoneKnob(),
        apps=[batch_app("batch0", "/tenants/a"), batch_app("batch1", "/tenants/b")],
        ssd_model=samsung_980pro_like(),
        duration_s=0.05,
        warmup_s=0.01,
        seed=seed,
        device_scale=8.0,
        trace=trace,
    )


def raising_scenario(name: str = "boom") -> Scenario:
    # An unknown io.prio.class fails knob validation inside the run --
    # a deterministic, picklable failure for both execution paths.
    return Scenario(
        name=name,
        knob=MqDeadlineKnob(classes={"/tenants/a": "bogus-class"}),
        apps=[batch_app("batch0", "/tenants/a")],
        ssd_model=samsung_980pro_like(),
        duration_s=0.05,
        warmup_s=0.01,
    )


class CrashKnob(KnobConfig):
    """Kills the whole worker process while the host configures it.

    Module-level so spawned workers can unpickle it. Never run it on a
    serial executor: it would take the test process down with it.
    """

    def configure(self, hierarchy, device_ids) -> None:
        os._exit(1)


class TestDeterminismAcrossProcesses:
    def test_two_worker_sweep_bit_identical_to_serial(self):
        scenarios = [tiny_scenario(f"det-{i}", seed=100 + i) for i in range(4)]
        serial = SweepExecutor(max_workers=1).run_strict(scenarios)
        with SweepExecutor(max_workers=2) as pool:
            parallel = pool.run_strict(scenarios)
        assert len(parallel) == len(serial)
        for ours, theirs in zip(serial, parallel):
            assert ours.content_equal(theirs)

    def test_spawned_worker_matches_in_process_run(self):
        scenario = tiny_scenario("det-single", seed=7)
        in_process = run_scenario_summary(scenario)
        with SweepExecutor(max_workers=2) as pool:
            spawned = pool.run_one(scenario)
        assert spawned.content_equal(in_process)

    def test_submission_order_preserved(self):
        scenarios = [tiny_scenario(f"order-{i}", seed=i) for i in range(5)]
        with SweepExecutor(max_workers=2) as pool:
            results = pool.run_strict(scenarios)
        assert [r.scenario_name for r in results] == [s.name for s in scenarios]


class TestErrorCapture:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_is_structured_and_isolated(self, workers):
        scenarios = [
            tiny_scenario("ok-before"),
            raising_scenario(),
            tiny_scenario("ok-after", seed=43),
        ]
        with SweepExecutor(max_workers=workers) as pool:
            results = pool.run(scenarios)
        assert results[0].scenario_name == "ok-before"
        assert results[2].scenario_name == "ok-after"
        error = results[1]
        assert isinstance(error, SweepError)
        assert error.scenario_name == "boom"
        assert "InvalidKnobValue" in error.error
        # The worker's traceback survives the process boundary.
        assert "Traceback" in error.traceback_text
        assert pool.stats.failed == 1
        assert pool.stats.executed == 2

    def test_run_strict_raises_sweep_failure(self):
        with SweepExecutor(max_workers=1) as pool:
            with pytest.raises(SweepFailure) as excinfo:
                pool.run_strict([raising_scenario()])
        assert excinfo.value.error.scenario_name == "boom"
        assert "InvalidKnobValue" in str(excinfo.value)


class TestBrokenPool:
    def test_crashed_worker_does_not_break_later_sweeps(self):
        crash = dataclasses.replace(tiny_scenario("crash"), knob=CrashKnob())
        later = [tiny_scenario(f"after-crash-{i}", seed=200 + i) for i in range(2)]
        serial = SweepExecutor(max_workers=1).run_strict(later)
        with SweepExecutor(max_workers=2) as pool:
            # Whether the innocent scenario survives the crash depends
            # on timing, so only the crashing slot is asserted.
            results = pool.run([crash, tiny_scenario("innocent")])
            assert isinstance(results[0], SweepError)
            assert "BrokenProcessPool" in results[0].error
            after = pool.run(later)
        for ours, theirs in zip(after, serial):
            assert isinstance(ours, ScenarioSummary), ours
            assert ours.content_equal(theirs)


class TestCaching:
    def test_warm_cache_executes_nothing(self, tmp_path):
        scenarios = [tiny_scenario(f"warm-{i}", seed=i) for i in range(3)]
        cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=cache) as cold:
            first = cold.run_strict(scenarios)
            assert cold.stats.executed == 3
            assert cold.stats.cached == 0
        warm_cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=warm_cache) as warm:
            second = warm.run_strict(scenarios)
            assert warm.stats.executed == 0
            assert warm.stats.cached == 3
        for a, b in zip(first, second):
            assert a.content_equal(b)

    def test_poisoned_entry_is_a_miss_not_a_crash(self, tmp_path):
        scenario = tiny_scenario("poisoned")
        cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=cache) as pool:
            original = pool.run_one(scenario)
        key = scenario_key(scenario)
        path = cache.path_for(key)
        assert path.is_file()
        path.write_bytes(b"this is not a cache entry")
        fresh = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=fresh) as pool:
            recomputed = pool.run_one(scenario)
            assert pool.stats.executed == 1  # miss -> re-run
        assert fresh.stats.corrupt == 1
        assert recomputed.content_equal(original)
        # The corrupt file was dropped and replaced by the re-run's store.
        assert fresh.stats.stores == 1

    def test_old_schema_entry_is_dropped_not_mis_hit(self, tmp_path, monkeypatch):
        """The schema-salt contract: an entry written under an older
        ``SCHEMA_VERSION`` must be unlinked and treated as a miss, never
        returned as a hit — even when its key and payload are otherwise
        perfectly valid."""
        from repro.exec import cache as cache_module
        from repro.exec.cachekey import SCHEMA_VERSION

        assert SCHEMA_VERSION >= 5  # v5: columnar entries replace pickles
        scenario = tiny_scenario("schema-drift")
        cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=cache) as pool:
            genuine = pool.run_one(scenario)
        key = scenario_key(scenario)
        path = cache.path_for(key)
        # Rewrite the entry as if an older release had produced it: same
        # key, same genuine summary payload, previous schema version.
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
            cache.put(key, genuine, scenario=scenario)
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(key) is None  # dropped, not mis-hit
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # unlinked on detection
        # The executor recomputes rather than trusting stale bytes.
        with SweepExecutor(max_workers=1, cache=fresh) as pool:
            recomputed = pool.run_one(scenario)
            assert pool.stats.executed == 1
        assert recomputed.content_equal(genuine)

    def test_wrong_payload_type_is_rejected(self, tmp_path):
        scenario = tiny_scenario("typed")
        cache = ResultCache(tmp_path / "cache")
        key = scenario_key(scenario)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        # A well-formed entry (magic, CRC, header) whose summary is a string.
        header = json.dumps(
            {"apps": [], "key": key, "scenario": None, "schema_version": SCHEMA_VERSION,
             "summary": "nope"}
        ).encode()
        body = struct.pack("<Q", len(header)) + header
        path.write_bytes(b"isolbench-entry\n" + struct.pack("<I", zlib.crc32(body)) + body)
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_traced_scenarios_bypass_cache(self, tmp_path):
        scenario = tiny_scenario("traced", trace=TraceConfig(sample_period_us=0.0))
        cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=cache) as pool:
            pool.run_one(scenario)
            pool.run_one(scenario)
            assert pool.stats.executed == 2
            assert pool.stats.cached == 0
        assert cache.entries() == []


class TestInSweepDedup:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_scenarios_execute_once(self, workers):
        same_a = tiny_scenario("dup", seed=7)
        same_b = tiny_scenario("dup", seed=7)
        other = tiny_scenario("solo", seed=8)
        with SweepExecutor(max_workers=workers) as pool:
            results = pool.run_strict([same_a, other, same_b, same_a])
            assert pool.stats.executed == 2
            assert pool.stats.deduped == 2
        # Followers receive the primary's summary, in submission order.
        assert results[0] is results[2] is results[3]
        assert results[1].scenario_name == "solo"

    def test_dedup_composes_with_cache(self, tmp_path):
        scenario = tiny_scenario("dup-cached")
        cache = ResultCache(tmp_path / "cache")
        with SweepExecutor(max_workers=1, cache=cache) as pool:
            pool.run_strict([scenario, scenario])
            assert (pool.stats.executed, pool.stats.deduped) == (1, 1)
            pool.run_strict([scenario, scenario])
            # Warm: both slots are cache hits, nothing left to dedupe.
            assert pool.stats.executed == 1
            assert pool.stats.cached == 2
            assert pool.stats.deduped == 1
        assert len(cache.entries()) == 1

    def test_failed_primary_fans_error_to_followers(self):
        bad = raising_scenario("dup-boom")
        with SweepExecutor(max_workers=1) as pool:
            results = pool.run([bad, bad])
            # One real execution failed; its follower holds the same error.
            assert pool.stats.failed == 1
            assert pool.stats.deduped == 1
        assert all(isinstance(item, SweepError) for item in results)
        assert results[0].traceback_text == results[1].traceback_text

    def test_traced_scenarios_are_never_deduped(self):
        traced = tiny_scenario("dup-traced", trace=TraceConfig(sample_period_us=0.0))
        with SweepExecutor(max_workers=1) as pool:
            results = pool.run_strict([traced, traced])
            assert pool.stats.executed == 2
            assert pool.stats.deduped == 0
        assert results[0] is not results[1]

    def test_progress_reports_deduped(self):
        scenario = tiny_scenario("dup-prog")
        ticks = []
        with SweepExecutor(max_workers=1, progress=ticks.append) as pool:
            pool.run_strict([scenario, scenario])
        assert ticks[-1].deduped == 1
        assert "1 deduped" in str(ticks[-1])


class TestProgress:
    def test_progress_ticks_and_cache_counts(self, tmp_path):
        scenarios = [tiny_scenario(f"prog-{i}", seed=i) for i in range(3)]
        cache = ResultCache(tmp_path / "cache")
        ticks = []
        with SweepExecutor(
            max_workers=1, cache=cache, progress=ticks.append
        ) as pool:
            pool.run_strict(scenarios)
            first_run = list(ticks)
            ticks.clear()
            pool.run_strict(scenarios)
        assert [t.done for t in first_run] == [1, 2, 3]
        assert all(t.total == 3 for t in first_run)
        assert first_run[-1].cached == 0
        assert ticks[-1].cached == 3
        # The rendered line has the documented shape.
        assert "3/3 done, 3 cached," in str(ticks[-1])
        assert "events/sec aggregate" in str(ticks[-1])
