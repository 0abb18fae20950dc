"""One harness for every study in :data:`repro.core.studies.STUDIES`.

Each study's ``mini`` settings run cold and serial once, against a fresh
result cache, and every check below reads that run: the golden under
``tests/data/`` (structure exactly, measured numbers with tolerances that
only absorb deliberate small re-calibrations -- regenerate the golden for
anything larger), the study's acceptance bars, a warm-cache re-run that
executes nothing, an uncached re-run on two spawned workers (the only
other cold run) and ``isol-bench <study> --mini --json`` through
:func:`repro.tools.cli.main` on the warm cache (``table1`` has no
``--mini``: its ``--quick`` runs with the mini settings). The ``--quick``
goldens take minutes and run only with ``ISOLBENCH_GOLDEN=1``.

Regenerate a golden after an intentional simulator change::

    PYTHONPATH=src python -m tests.integration.test_studies ctl
    PYTHONPATH=src python -m tests.integration.test_studies table1 quick
"""

import builtins
import importlib
import json
import math
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.core.studies import STUDIES
from repro.exec import ExecutorStats, ResultCache, SweepExecutor, canonical_text, scenario_key
from repro.exec.cachekey import decode_canonical
from repro.tools.cli import main

DATA_DIR = pathlib.Path(__file__).parent.parent / "data"

#: Relative tolerance for dimensionful numbers (p99 us, MiB/s, scores).
REL_TOL = 0.5
#: Absolute tolerance for Table I scores in [0, 1] (fairness, ratios).
UNIT_ATOL = 0.06
#: Absolute slack for counters (retries, controller steps) and D9's
#: verified-set MAE in microseconds.
COUNT_ATOL = 25.0
#: Absolute slack so near-zero (fully repaired) SLO scores compare stably.
SCORE_ATOL = 0.02
#: Absolute slack for D9's near-zero violation totals.
VIOLATION_ATOL = 0.05

PERF_LINE_RE = re.compile(
    r"^perf: events=\d+ elapsed=\d+\.\d{3}s events/sec=\d+ engine=batched$"
)


def _close(got: dict, want: dict, names, context: str, atol: float) -> None:
    for name in names:
        assert got[name] == pytest.approx(
            want[name], rel=REL_TOL, abs=atol
        ), f"{context}.{name}: measured {got[name]!r}, golden {want[name]!r}"


def _equal(got: dict, want: dict, names, context: str) -> None:
    for name in names:
        assert got[name] == want[name], f"{context}.{name}"


# ----------------------------------------------------------------------
# Golden comparators: (measured doc, golden doc)
# ----------------------------------------------------------------------
def _compare_table1(doc: dict, golden: dict) -> None:
    _equal(doc, golden, ("verdicts", "matches_paper"), "table1")
    for knob, expected in golden["inputs"].items():
        for name, want in expected.items():
            got = doc["inputs"][knob][name]
            context = f"{knob}.{name}: measured {got!r}, golden {want!r}"
            if isinstance(want, bool) or want is None or isinstance(want, int):
                assert got == want, context
            elif name.startswith("fairness") or name in (
                "peak_bandwidth_ratio_vs_none",
                "front_utilization_span_fraction",
            ):
                assert got == pytest.approx(want, abs=UNIT_ATOL), context
            else:
                assert got == pytest.approx(
                    want, rel=REL_TOL, abs=UNIT_ATOL
                ), context


_D5_CELL = (
    "prio_p99_us", "prio_mib_s", "be_mib_s", "retries", "timeouts", "failures_delivered"
)


def _compare_d5(doc: dict, golden: dict) -> None:
    _equal(doc, golden, ("fault_classes", "ranking"), "d5")
    for knob, expected in golden["rows"].items():
        measured = doc["rows"][knob]
        assert measured["mean_p99_ratio"] == pytest.approx(
            expected["mean_p99_ratio"], rel=REL_TOL
        ), f"{knob}.mean_p99_ratio"
        cells = [("healthy", measured["healthy"], expected["healthy"])]
        cells += [
            (name, measured["degraded"][name], cell)
            for name, cell in expected["degraded"].items()
        ]
        for label, got, want in cells:
            context = f"{knob}.{label}"
            _equal(got, want, ("knob", "fault_class"), context)
            _close(got, want, _D5_CELL, context, COUNT_ATOL)


def _compare_tune(doc: dict, golden: dict) -> None:
    _equal(doc, golden, ("slo", "budget", "ranking", "recommended"), "tune")
    for knob, expected in golden["rows"].items():
        measured = doc["rows"][knob]
        _equal(measured, expected, ("strategy", "best_label", "improved"), knob)
        for key in ("baseline_score", "tuned_score"):
            context = f"{knob}.{key}"
            _close(measured[key], expected[key], ("total",), context, SCORE_ATOL)


def _compare_place(doc: dict, golden: dict) -> None:
    _equal(doc, golden, ("fleet_name", "seed", "best"), "place")
    assert sorted(doc["reports"]) == sorted(golden["reports"])
    # The matrix every strategy shared is the one the golden pins.
    assert sorted(doc["matrix"]["solo"]) == sorted(golden["matrix"]["solo"])
    _close(doc["scores"], golden["scores"], golden["reports"], "scores", SCORE_ATOL)
    for strategy, expected in golden["reports"].items():
        measured = doc["reports"][strategy]
        placement = measured["placement"]
        _equal(placement, expected["placement"], ("assignment", "evicted"), strategy)
        for mine, theirs in zip(measured["devices"], expected["devices"], strict=True):
            _equal(mine, theirs, ("slot", "tenants", "tuned"), strategy)


_CTL_CELL = ("prio_p99_us", "prio_mib_s", "be_mib_s", "ctl_applied", "ctl_steps")


def _compare_ctl(doc: dict, golden: dict) -> None:
    _equal(doc, golden, ("slo_p99_us", "patterns", "knobs", "holds"), "ctl")
    for cell, expected in golden["cells"].items():
        for mode in ("static", "online"):
            got, want = doc["cells"][cell][mode], expected[mode]
            context = f"{cell}.{mode}"
            _equal(got, want, ("knob", "pattern", "mode", "slo_met"), context)
            _close(got, want, _CTL_CELL, context, COUNT_ATOL)


_D9_ROW = ("knob", "meets_or_beats", "train_calls", "scored", "verified")


def _compare_d9(doc: dict, golden: dict) -> None:
    _equal(
        doc,
        golden,
        ("slo", "budget", "train_budget", "pool_factor", "meets_or_beats_all"),
        "d9",
    )
    assert sorted(doc["rows"]) == sorted(golden["rows"])
    for knob, want in golden["rows"].items():
        got = doc["rows"][knob]
        _equal(got, want, _D9_ROW, knob)
        for arm in ("pure", "surrogate"):
            context = f"{knob}.{arm}"
            _equal(got[arm], want[arm], ("calls", "meets_slo"), context)
            _close(got[arm], want[arm], ("best_total",), context, VIOLATION_ATOL)
        _close(got, want, ("mae_p99_us",), knob, COUNT_ATOL)


# ----------------------------------------------------------------------
# Acceptance bars: (study result, tmp_path)
# ----------------------------------------------------------------------
def _d5_covers_three_fault_classes(table, tmp_path) -> None:
    """A ranking of all five knobs under >= 3 fault classes."""
    assert len(table.fault_classes) >= 3
    assert len(table.rank()) == 5


def _tune_improves_at_least_three_knobs(report, tmp_path) -> None:
    """Tuning beats the untuned default for >= 3 of the 5 knobs."""
    assert len(report.rows) == len(report.to_json_dict()["ranking"]) == 5
    improved = [row.knob for row in report.rows if row.improved]
    assert len(improved) >= 3, f"only improved: {improved}"
    for row in report.rows:
        assert row.best.score.total <= row.baseline.score.total or not row.improved


def _tune_recommendation_beats_the_default(report, tmp_path) -> None:
    winner = report.recommended()
    assert winner.improved
    assert winner.best.score.total < winner.baseline.score.total
    assert winner.settings  # concrete sysfs-flavoured rendering


def _tune_decision_trace_replays_the_choice(report, tmp_path) -> None:
    from repro.tune.advisor import decision_trace_records, write_decision_trace

    records = decision_trace_records(report)
    assert records[0]["type"] == "slo"
    advice = [r for r in records if r["type"] == "advice"]
    assert [r["knob"] for r in advice] == report.to_json_dict()["ranking"]
    evaluations = [r for r in records if r["type"] == "evaluation"]
    assert len(evaluations) == sum(len(row.evaluations) for row in report.rows)
    path = tmp_path / "trace.jsonl"
    write_decision_trace(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert [json.loads(line) for line in lines] == records


def _place_serifos_strictly_beats_random(comparison, tmp_path) -> None:
    """Interference-awareness pays on the demo fleet."""
    assert set(comparison.reports) == {"random", "binpack", "serifos"}
    assert comparison.score_of("serifos") < comparison.score_of("random")
    assert comparison.best() == "serifos"
    assert comparison.reports["serifos"].meets_slo


def _place_no_strategy_sheds_tenants(comparison, tmp_path) -> None:
    for strategy, report in comparison.reports.items():
        assert report.placement.evicted == (), strategy


def _place_matrix_rebuild_is_identical_and_free(comparison, tmp_path) -> None:
    """The shared matrix alone: a cold build only misses, a warm one is free."""
    from repro.fleet.interference import build_matrix
    from repro.fleet.spec import demo_fleet

    settings = STUDIES["place"].settings("mini").matrix
    cache = ResultCache(tmp_path)
    with SweepExecutor(max_workers=1, cache=cache) as cold:
        first = build_matrix(demo_fleet(), settings, executor=cold)
    with SweepExecutor(max_workers=1, cache=cache) as warm:
        second = build_matrix(demo_fleet(), settings, executor=warm)
    assert cold.stats.executed > 0 and cold.stats.cached == 0
    assert warm.stats.executed == 0
    assert first.to_json_dict() == second.to_json_dict()
    assert first.to_json_dict() == comparison.matrix.to_json_dict()


def _ctl_online_holds_where_static_violates(table, tmp_path) -> None:
    """The flagship cell: the PID io.max loop holds a flash crowd."""
    assert ("io.max", "flash-crowd") in table.holds()
    pair = table.pair("io.max", "flash-crowd")
    assert pair.online.slo_met and not pair.static.slo_met
    assert pair.online.prio_p99_us <= pair.static.prio_p99_us


def _ctl_static_is_tuned_at_base(table, tmp_path) -> None:
    """Static configs meet the SLO on the steady pattern (no strawmen)."""
    for knob in table.knobs:
        pair = table.pair(knob, "steady")
        assert pair.static.slo_met, f"{knob} static violates at base load"
        assert pair.online.slo_met, f"{knob} online violates at base load"


def _ctl_online_never_worse_than_static(table, tmp_path) -> None:
    """The controller never loses an SLO static holds."""
    for (knob, pattern), pair in table.pairs.items():
        if pair.static.slo_met:
            assert pair.online.slo_met, f"{knob}/{pattern}: online regressed"


def _d9_surrogate_meets_or_beats_pure_everywhere(report, tmp_path) -> None:
    """Budget for budget, the surrogate arm is never worse than pure."""
    assert report.meets_or_beats_all(), report.render()
    knobs = len(report.rows)
    assert f"meets-or-beats: {knobs}/{knobs} knobs" in report.render()


def _d9_budget_for_budget_accounting(report, tmp_path) -> None:
    """Equal simulator calls per arm; >= 10x more candidates considered."""
    for row in report.rows:
        assert row.pure.calls == row.surrogate.calls == report.budget
        assert row.widening >= 10.0, f"{row.knob}: widening {row.widening:.1f}x"


def _d9_training_fit_is_trustworthy(report, tmp_path) -> None:
    """The model ranks its own training corpus: p99 spearman >= 0.8."""
    for row in report.rows:
        rho = row.fit["p99_us"]["spearman"]
        assert rho >= 0.8, f"{row.knob}: train p99 spearman {rho:.2f}"


def _d9_verified_p99_error_is_small(report, tmp_path) -> None:
    """The verified-set p99 MAE stays within 50 us on every knob."""
    for row in report.rows:
        assert row.mae_p99_us <= 50.0, (row.knob, row.mae_p99_us)


@dataclass(frozen=True)
class Expected:
    """What the harness holds one study's results to."""

    #: Golden file stem: ``tests/data/<golden>_<level>_golden.json``.
    golden: str
    compare: Callable[[dict, dict], None]
    bars: tuple[Callable, ...] = ()
    #: A cold run may hit cache entries its own earlier sweeps stored
    #: (search loops re-propose candidates; placement reuses the matrix).
    self_hits: bool = False
    #: The study also pins its ``--quick`` level.
    quick_golden: bool = False


EXPECTED = {
    "table1": Expected("table1", _compare_table1, quick_golden=True),
    "d5": Expected(
        "d5", _compare_d5, (_d5_covers_three_fault_classes,), quick_golden=True
    ),
    "tune": Expected(
        "tune",
        _compare_tune,
        (
            _tune_improves_at_least_three_knobs,
            _tune_recommendation_beats_the_default,
            _tune_decision_trace_replays_the_choice,
        ),
        self_hits=True,
    ),
    "place": Expected(
        "place",
        _compare_place,
        (
            _place_serifos_strictly_beats_random,
            _place_no_strategy_sheds_tenants,
            _place_matrix_rebuild_is_identical_and_free,
        ),
        self_hits=True,
    ),
    "ctl": Expected(
        "d8",
        _compare_ctl,
        (
            _ctl_online_holds_where_static_violates,
            _ctl_static_is_tuned_at_base,
            _ctl_online_never_worse_than_static,
        ),
    ),
    "d9": Expected(
        "d9",
        _compare_d9,
        (
            _d9_surrogate_meets_or_beats_pure_everywhere,
            _d9_budget_for_budget_accounting,
            _d9_training_fit_is_trustworthy,
            _d9_verified_p99_error_is_small,
        ),
        self_hits=True,
    ),
}

BARS = [
    pytest.param(name, bar, id=f"{name}-{bar.__name__.removeprefix(f'_{name}_')}")
    for name, expected in EXPECTED.items()
    for bar in expected.bars
]


def golden_path(name: str, level: str) -> pathlib.Path:
    return DATA_DIR / f"{EXPECTED[name].golden}_{level}_golden.json"


@dataclass
class ColdRun:
    """A study's one cold serial mini run and the cache it filled."""

    result: object
    cache_dir: pathlib.Path
    stats: ExecutorStats


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """``cold_run(name)``: the study's cold serial mini run, run once."""
    runs: dict[str, ColdRun] = {}

    def get(name: str) -> ColdRun:
        if name not in runs:
            study = STUDIES[name]
            cache_dir = tmp_path_factory.mktemp(f"{name}-cache")
            cache = ResultCache(cache_dir)
            with SweepExecutor(max_workers=1, cache=cache) as executor:
                result = study.run(study.settings("mini"), executor)
            stats = executor.stats
            assert stats.executed > 0 and stats.failed == 0
            if EXPECTED[name].self_hits:
                assert stats.executed > stats.cached  # most work still executes
            else:
                assert stats.cached == 0
            runs[name] = ColdRun(result, cache_dir, stats)
        return runs[name]

    return get


@dataclass
class WarmRun:
    """A study's serial re-run on its cold run's cache."""

    result: object
    stats: ExecutorStats
    #: Every scenario the study handed to ``SweepExecutor.run``.
    submitted: list = field(default_factory=list)


def _rerun_warm(name: str, cold: ColdRun, submitted: list | None = None):
    """Re-run ``name`` serially on ``cold``'s cache, recording submissions."""
    study = STUDIES[name]
    original = SweepExecutor.run

    def recording(self, scenarios):
        if submitted is not None:
            submitted.extend(scenarios)
        return original(self, scenarios)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SweepExecutor, "run", recording)
        with SweepExecutor(max_workers=1, cache=ResultCache(cold.cache_dir)) as warm:
            result = study.run(study.settings("mini"), warm)
    return result, warm.stats


@pytest.fixture(scope="module")
def warm_run(cold_run):
    """``warm_run(name)``: the study re-run on its filled cache, run once."""
    runs: dict[str, WarmRun] = {}

    def get(name: str) -> WarmRun:
        if name not in runs:
            submitted: list = []
            result, stats = _rerun_warm(name, cold_run(name), submitted)
            runs[name] = WarmRun(result, stats, submitted)
        return runs[name]

    return get


def test_every_study_has_expectations():
    assert list(EXPECTED) == list(STUDIES)


@pytest.mark.parametrize("name", STUDIES)
def test_matches_golden(name, cold_run):
    doc = cold_run(name).result.to_json_dict()
    EXPECTED[name].compare(doc, json.loads(golden_path(name, "mini").read_text()))


@pytest.mark.parametrize("name, bar", BARS)
def test_acceptance_bar(name, bar, cold_run, tmp_path):
    bar(cold_run(name).result, tmp_path)


@pytest.mark.parametrize("name", STUDIES)
def test_warm_cache_executes_zero_scenarios(name, cold_run, warm_run):
    cold, warm = cold_run(name), warm_run(name)
    assert warm.stats.executed == warm.stats.failed == 0
    assert warm.stats.cached == (
        cold.stats.executed + cold.stats.cached + cold.stats.deduped
    )
    assert warm.result.render() == cold.result.render()
    assert warm.result.to_json_dict() == cold.result.to_json_dict()


@pytest.mark.parametrize("name", STUDIES)
def test_decoder_rebuilds_every_study_scenario(name, warm_run):
    """Each scenario the study builds survives the cache's text form."""
    texts = {canonical_text(scenario): scenario for scenario in warm_run(name).submitted}
    assert texts
    for text, scenario in texts.items():
        decoded = decode_canonical(text)
        assert decoded == scenario  # dataclass equality: a tuple is not a list
        assert canonical_text(decoded) == text
        assert scenario_key(decoded) == scenario_key(scenario)


@pytest.mark.parametrize("name", STUDIES)
def test_cache_files_hold_no_pickle(name, cold_run):
    """Every file a study leaves behind is a whole columnar entry."""
    files = [path for path in cold_run(name).cache_dir.rglob("*") if path.is_file()]
    assert files
    for path in files:
        data = path.read_bytes()
        assert path.suffix == ".entry", path
        assert not data.startswith(b"\x1f\x8b"), f"{path}: a gzip member"
        assert not data.startswith(b"\x80"), f"{path}: a pickle stream"
        # Magic, checksum, JSON header and columns account for every byte.
        assert ResultCache.read_entry(path)[0] == "ok", path


def _sum_312(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it: Neumaier-compensated floats."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif type(item) in (int, bool):
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@pytest.mark.parametrize("name", ["table1", "d5"])
def test_scoring_is_the_same_on_every_python(name, cold_run):
    """Scores do not depend on the interpreter's ``sum()``.

    Python 3.12 compensates float sums; 3.10 and 3.11 do not. The study
    is re-scored from its filled cache with 3.12's ``sum`` emulated and
    must give the same JSON as the cold run.
    """
    cold = cold_run(name)
    assert _sum_312([1e16, 1.0, -1e16]) == 1.0  # compensated, unlike 3.11
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "sum", _sum_312)
        result, stats = _rerun_warm(name, cold)
    assert stats.executed == 0
    assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
        cold.result.to_json_dict(), sort_keys=True
    )


@pytest.mark.parametrize("name", STUDIES)
def test_two_worker_run_bit_identical_to_serial(name, cold_run):
    cold = cold_run(name)
    study = STUDIES[name]
    with SweepExecutor(max_workers=2) as pool:
        parallel = study.run(study.settings("mini"), pool)
    assert pool.stats.executed > 0  # genuinely recomputed
    assert parallel.to_json_dict() == cold.result.to_json_dict()
    assert parallel.render() == cold.result.render()


@pytest.mark.parametrize("name", STUDIES)
def test_cli_on_warm_cache(name, cold_run, tmp_path, capsys, monkeypatch):
    cold = cold_run(name)
    study = STUDIES[name]
    argv = [name, "--quiet", "--workers", "1", "--cache-dir", str(cold.cache_dir)]
    if "mini" in study.levels:
        argv.append("--mini")
    else:
        module = importlib.import_module(f"repro.core.{study.module}")
        monkeypatch.setattr(module, "quick_settings", module.mini_settings)
        argv.append("--quick")
    json_path = tmp_path / f"{name}.json"
    if study.noun is not None:
        argv += ["--json", str(json_path)]

    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    rendered = cold.result.render().splitlines()
    assert out[: len(rendered)] == rendered
    total = cold.stats.executed + cold.stats.cached + cold.stats.deduped
    assert out[-2].startswith(
        f"sweep stats: executed=0 cached={total} deduped=0 failed=0 "
    ), out[-2]
    assert PERF_LINE_RE.match(out[-1]), out[-1]
    if study.noun is not None:
        assert f"wrote {study.noun} JSON: {json_path}" in out
        assert json_path.read_text() == json.dumps(
            cold.result.to_json_dict(), indent=2, sort_keys=True
        )


@pytest.mark.skipif(
    os.environ.get("ISOLBENCH_GOLDEN") != "1",
    reason="--quick goldens take minutes; set ISOLBENCH_GOLDEN=1",
)
@pytest.mark.parametrize(
    "name", [name for name, expected in EXPECTED.items() if expected.quick_golden]
)
def test_quick_matches_golden(name, tmp_path):
    # Honor $ISOLBENCH_CACHE_DIR so CI can reuse the cache its CLI steps
    # populated (which also proves key stability across processes);
    # without it, run cold in an isolated directory.
    from repro.exec import default_cache_dir

    cache_root = (
        default_cache_dir()
        if os.environ.get("ISOLBENCH_CACHE_DIR")
        else tmp_path / "cache"
    )
    study = STUDIES[name]
    with SweepExecutor(max_workers=1, cache=ResultCache(cache_root)) as executor:
        result = study.run(study.settings("quick"), executor)
    doc = result.to_json_dict()
    EXPECTED[name].compare(doc, json.loads(golden_path(name, "quick").read_text()))


def _regenerate(name: str, level: str = "mini") -> None:
    study = STUDIES[name]
    with SweepExecutor(max_workers=None) as executor:
        result = study.run(study.settings(level), executor)
    path = golden_path(name, level)
    path.write_text(json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(result.render())
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    _regenerate(*sys.argv[1:])
