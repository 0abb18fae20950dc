"""Unit tests for the pinned bench suite and trajectory comparison."""

import copy
import json
from pathlib import Path

import pytest

from repro.prof import bench
from repro.tools.cli import main

TRAJECTORY_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "trajectory"


def synthetic_record(norms: dict[str, float]) -> dict:
    """A minimal-but-valid bench record with given normalized medians."""
    return {
        "schema_version": bench.BENCH_SCHEMA_VERSION,
        "label": None,
        "mini": True,
        "repeats": 1,
        "workers": 1,
        "calibration_events": 1_000,
        "cases": {
            name: {
                "kind": "profiled",
                "events": 100,
                "rates": [value],
                "median_rate": value,
                "calibration_rates": [1.0],
                "normalized_rates": [value],
                "median_normalized": value,
            }
            for name, value in norms.items()
        },
    }


class TestCalibration:
    def test_calibration_fires_requested_events(self):
        # In-flight chain events may overshoot by at most chains - 1.
        events, elapsed = bench.run_calibration(n_events=2_000, chains=4)
        assert 2_000 <= events <= 2_003
        assert elapsed > 0


class TestTrajectoryFiles:
    def test_numbering_starts_at_one(self, tmp_path):
        assert bench.next_bench_path(tmp_path).name == "BENCH_0001.json"
        assert bench.latest_bench_path(tmp_path) is None

    def test_numbering_continues_past_gaps(self, tmp_path):
        for n in (1, 3):
            (tmp_path / f"BENCH_{n:04d}.json").write_text("{}")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        assert bench.next_bench_path(tmp_path).name == "BENCH_0004.json"
        assert bench.latest_bench_path(tmp_path).name == "BENCH_0003.json"

    def test_write_load_roundtrip(self, tmp_path):
        record = synthetic_record({"d1-overhead": 0.5})
        path = bench.write_bench(record, tmp_path)
        assert path.name == "BENCH_0001.json"
        assert bench.load_bench(path) == record
        assert bench.write_bench(record, tmp_path).name == "BENCH_0002.json"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="schema"):
            bench.load_bench(path)


class TestCompare:
    def test_identical_records_pass(self):
        record = synthetic_record({"a": 0.5, "b": 0.7})
        report = bench.compare_benches(record, copy.deepcopy(record))
        assert report.ok
        assert not report.regressions
        assert "PASS" in report.render()

    def test_two_x_slowdown_is_flagged(self):
        baseline = synthetic_record({"a": 0.5, "b": 0.7})
        current = synthetic_record({"a": 0.25, "b": 0.7})  # a got 2x slower
        report = bench.compare_benches(baseline, current, threshold=1.3)
        assert not report.ok
        assert [row.name for row in report.regressions] == ["a"]
        assert report.regressions[0].slowdown == pytest.approx(2.0)
        text = report.render()
        assert "REGRESSED" in text
        assert "FAIL" in text

    def test_speedup_is_not_a_regression(self):
        baseline = synthetic_record({"a": 0.5})
        current = synthetic_record({"a": 5.0})
        assert bench.compare_benches(baseline, current).ok

    def test_missing_case_fails(self):
        baseline = synthetic_record({"a": 0.5, "gone": 0.5})
        current = synthetic_record({"a": 0.5})
        report = bench.compare_benches(baseline, current)
        assert not report.ok
        assert report.missing == ["gone"]
        assert "MISSING" in report.render()

    def test_new_case_is_ignored(self):
        baseline = synthetic_record({"a": 0.5})
        current = synthetic_record({"a": 0.5, "new": 0.1})
        assert bench.compare_benches(baseline, current).ok

    def test_zero_current_rate_is_infinite_slowdown(self):
        baseline = synthetic_record({"a": 0.5})
        current = synthetic_record({"a": 0.0})
        report = bench.compare_benches(baseline, current)
        assert report.rows[0].slowdown == float("inf")
        assert not report.ok

    def test_threshold_validation(self):
        record = synthetic_record({"a": 0.5})
        with pytest.raises(ValueError, match="threshold"):
            bench.compare_benches(record, record, threshold=1.0)

    def test_raw_rates_surface_in_rows_and_render(self):
        baseline = synthetic_record({"a": 0.5})
        current = synthetic_record({"a": 0.5})
        baseline["cases"]["a"]["median_rate"] = 100_000.0
        current["cases"]["a"]["median_rate"] = 150_000.0
        report = bench.compare_benches(baseline, current)
        row = report.rows[0]
        assert row.raw_speedup == pytest.approx(1.5)
        assert row.speedup == pytest.approx(1.0)
        assert "1.50x" in report.render()


def assert_flags_synthetic_regression(record: dict) -> None:
    """Halving every case's rate must fail a compare against ``record``."""
    slowed = copy.deepcopy(record)
    for entry in slowed["cases"].values():
        entry["median_normalized"] = entry["median_normalized"] / 2.0
        entry["median_rate"] = entry["median_rate"] / 2.0
    report = bench.compare_benches(record, slowed)
    assert not report.ok
    assert len(report.regressions) == len(record["cases"])
    assert "REGRESSED" in report.render() and "FAIL" in report.render()


class TestCommittedTrajectory:
    """The committed BENCH_0001 -> BENCH_0002 pair records the engine
    rewrite's measured improvement, and BENCH_0003 -> BENCH_0004 the
    request path's per-I/O overhead cut; compare must report both. The
    latest record is CI's baseline, so compare must flag a synthetic
    regression against it."""

    def records(self) -> tuple[dict, dict]:
        base = bench.load_bench(TRAJECTORY_DIR / "BENCH_0001.json")
        cur = bench.load_bench(TRAJECTORY_DIR / "BENCH_0002.json")
        return base, cur

    def latest(self) -> dict:
        return bench.load_bench(bench.latest_bench_path(TRAJECTORY_DIR))

    def test_bench_0002_is_full_record_matching_baseline_shape(self):
        base, cur = self.records()
        assert cur["mini"] is False and base["mini"] is False
        assert cur["repeats"] == base["repeats"] == 3
        assert cur["workers"] == base["workers"] == 2
        assert set(cur["cases"]) == set(base["cases"])

    def test_compare_reports_improvement(self):
        base, cur = self.records()
        report = bench.compare_benches(base, cur)
        assert report.ok, report.render()
        # Every pinned case got faster in raw events/sec; the profiled
        # cases (engine hot loop) by a healthy margin.
        for row in report.rows:
            assert row.raw_speedup > 1.0, row
        profiled = {r.name: r for r in report.rows if r.name != "exec-batch"}
        assert all(r.raw_speedup > 1.2 for r in profiled.values()), profiled
        assert "PASS" in report.render()

    def test_compare_reports_request_path_speedup(self):
        base = bench.load_bench(TRAJECTORY_DIR / "BENCH_0003.json")
        cur = bench.load_bench(TRAJECTORY_DIR / "BENCH_0004.json")
        assert cur["mini"] is False
        assert cur["repeats"] == bench.FULL_REPEATS and cur["workers"] == 2
        report = bench.compare_benches(base, cur)
        assert report.ok, report.render()
        speedups = {row.name: row.speedup for row in report.rows}
        for name in ("d1-overhead", "d2-fairness", "d5-faulted"):
            assert speedups[name] > 1.0, report.render()

    def test_synthetic_regression_vs_bench_0002_is_flagged(self):
        _, cur = self.records()
        assert_flags_synthetic_regression(cur)

    def test_latest_record_is_a_full_exclusive_record(self):
        # BENCH_0003 on: rates timed unprofiled, phases exclusive, so the
        # event loop is the "sim" phase rather than a between-callbacks gap.
        latest = self.latest()
        _, previous = self.records()
        assert latest["mini"] is False
        assert latest["repeats"] == bench.FULL_REPEATS and latest["workers"] == 2
        assert set(latest["cases"]) == set(previous["cases"])
        for name, entry in latest["cases"].items():
            if entry["kind"] != "profiled":
                continue
            assert entry["coverage"] >= 0.9, name
            assert "sim" in entry["phase_wall"], name
            assert "engine.pop" not in entry["phase_wall"], name
            assert sum(entry["phase_events"].values()) == entry["events"], name

    def test_synthetic_regression_vs_latest_record_is_flagged(self):
        assert_flags_synthetic_regression(self.latest())


class TestRunBench:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            bench.run_bench(cases=("no-such-case",))

    def test_repeats_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            bench.run_bench(repeats=0)

    def test_exec_case_schema(self):
        record = bench.run_bench(mini=True, cases=("exec-batch",), workers=1)
        assert record["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert record["repeats"] == bench.MINI_REPEATS
        entry = record["cases"]["exec-batch"]
        assert entry["kind"] == "executor"
        assert entry["events"] > 0
        assert entry["median_normalized"] > 0
        stats = entry["executor"]
        # Two sweeps over 3 distinct x 2 submissions: cold executes and
        # dedupes, warm is pure cache hits.
        assert stats["sweeps"] == 2
        assert stats["executed"] == 3
        assert stats["deduped"] == 3
        assert stats["cached"] == 6
        assert 0 < stats["utilization"] <= 1
        assert stats["busy_seconds"] > 0
        assert stats["worker_busy"]
        assert entry["cache"] == {"hits": 6, "misses": 6, "stores": 3}
        # The record must be committable as-is.
        json.dumps(record)

    def test_calibration_brackets_the_sweeps_after_pool_start(self, monkeypatch):
        # Spawning workers and importing the engine there is process
        # start-up, which the calibration cannot normalize: an uncached
        # sweep starts the pool, then calibration runs bracket the two
        # timed sweeps, and the record holds only those two.
        seen = []
        real_run, real_calibration = bench.SweepExecutor.run, bench.run_calibration

        def run(executor, scenarios):
            pool_up = executor._pool is not None
            seen.append(("sweep", pool_up, executor.cache is not None))
            return real_run(executor, scenarios)

        def calibration():
            seen.append(("calibration",))
            return real_calibration()

        monkeypatch.setattr(bench.SweepExecutor, "run", run)
        monkeypatch.setattr(bench, "run_calibration", calibration)
        record = bench.run_bench(repeats=1, cases=("exec-batch",), workers=2)
        assert seen == [
            ("sweep", False, False),
            ("calibration",),
            ("sweep", True, True),
            ("sweep", True, True),
            ("calibration",),
        ]
        entry = record["cases"]["exec-batch"]
        stats = entry["executor"]
        assert (stats["sweeps"], stats["executed"], stats["deduped"]) == (2, 3, 3)
        assert stats["cached"] == 6 and stats["workers"] == 2
        assert entry["cache"] == {"hits": 6, "misses": 6, "stores": 3}
        assert entry["start_up_seconds"] > 0

    def test_profiled_case_breakdown_covers_wall(self):
        record = bench.run_bench(mini=True, cases=("d5-faulted",))
        entry = record["cases"]["d5-faulted"]
        assert entry["kind"] == "profiled"
        assert entry["coverage"] >= 0.9
        assert sum(entry["phase_wall"].values()) == pytest.approx(
            entry["coverage"] * entry["loop_wall_seconds"]
        )
        # The faulted cell must actually exercise the fault machinery.
        assert entry["phase_wall"].get("faults", 0.0) > 0


class TestBenchCli:
    def test_compare_identical_candidate_passes(self, tmp_path, capsys):
        record = synthetic_record({"a": 0.5})
        bench.write_bench(record, tmp_path)
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(record))
        code = main(
            [
                "bench",
                "--dir",
                str(tmp_path),
                "--candidate",
                str(candidate),
                "--compare",
                "--no-write",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert out.strip().splitlines()[-1].startswith("perf: events=")

    def test_compare_flags_synthetic_slowdown(self, tmp_path, capsys):
        bench.write_bench(synthetic_record({"a": 0.5}), tmp_path)
        slowed = synthetic_record({"a": 0.25})
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(slowed))
        code = main(
            [
                "bench",
                "--dir",
                str(tmp_path),
                "--candidate",
                str(candidate),
                "--compare",
                "--no-write",
            ]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_without_baseline_errors(self, tmp_path):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(synthetic_record({"a": 0.5})))
        with pytest.raises(SystemExit, match="no baseline"):
            main(
                [
                    "bench",
                    "--dir",
                    str(tmp_path / "empty"),
                    "--candidate",
                    str(candidate),
                    "--compare",
                ]
            )

    def test_bench_writes_record(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--mini",
                "--cases",
                "exec-batch",
                "--workers",
                "1",
                "--dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "BENCH_0001.json").is_file()
        assert "case exec-batch" in out
        assert "util=" in out
