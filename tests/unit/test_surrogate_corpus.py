"""Unit tests: corpus loading is defensive, deterministic, and counted.

The cache directory is shared, long-lived state, so the loader must
survive anything it finds there: truncated entries, garbage bytes,
other-schema entries, and entries written without a scenario. Each is
counted and skipped, never fatal -- and when the survivors are too few,
``--surrogate=auto`` falls back to pure search with an explicit notice
instead of fitting on noise.
"""

import dataclasses
import re
from types import SimpleNamespace

import pytest

from repro.core.config import NoneKnob, Scenario
from repro.core.d6_autotune import mini_settings, resolve_surrogate_model
from repro.exec import cache as cache_module
from repro.exec.cache import ResultCache
from repro.exec.cachekey import SCHEMA_VERSION, scenario_key
from repro.exec.summary import run_scenario_summary
from repro.surrogate.corpus import (
    MIN_CORPUS_ROWS,
    corpus_from_pairs,
    holdout_split,
    load_corpus,
    read_entry,
)
from repro.surrogate.features import FEATURE_SCHEMA_VERSION, scenario_cgroups
from repro.workloads.spec import JobSpec


@pytest.fixture(scope="module")
def pair():
    """One real (scenario, summary) pair from a tiny simulated run."""
    scenario = Scenario(
        name="corpus-test",
        knob=NoneKnob(),
        apps=[
            JobSpec(name="prio", cgroup_path="/t/prio", queue_depth=4, app_class="lc"),
            JobSpec(name="be", cgroup_path="/t/be", queue_depth=8),
        ],
        duration_s=0.05,
        warmup_s=0.01,
        device_scale=16.0,
    )
    return scenario, run_scenario_summary(scenario)


def seed_cache(tmp_path, pair, n: int = 3) -> ResultCache:
    cache = ResultCache(tmp_path / "cache")
    scenario, summary = pair
    for i in range(n):
        cache.put(f"{i:064x}", summary, scenario=scenario)
    return cache


class TestLoading:
    def test_loads_rows_per_cgroup(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair, n=3)
        corpus = load_corpus(cache.root)
        groups = scenario_cgroups(pair[0])
        assert corpus.stats.entries_seen == 3
        assert corpus.stats.entries_loaded == 3
        assert corpus.stats.skipped == 0
        assert corpus.n_rows == 3 * len(groups)
        assert [row.cgroup for row in corpus.rows[: len(groups)]] == groups

    def test_missing_directory_is_empty_not_fatal(self, tmp_path):
        corpus = load_corpus(tmp_path / "nope")
        assert corpus.n_rows == 0
        assert corpus.stats.entries_seen == 0

    def test_deterministic_digest(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair)
        assert load_corpus(cache.root).digest() == load_corpus(cache.root).digest()


class TestDefensiveSkips:
    def test_corrupt_entry_counted_not_fatal(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair, n=2)
        good = cache.entries()[0]
        truncated = good.parent / ("0" * 63 + "f.entry")
        truncated.write_bytes(good.read_bytes()[:40])
        garbage = good.parent / ("0" * 63 + "e.entry")
        garbage.write_bytes(b"not a cache entry at all")
        corpus = load_corpus(cache.root)
        assert corpus.stats.skipped_corrupt == 2
        assert corpus.stats.entries_loaded == 2
        assert corpus.n_rows == 2 * len(scenario_cgroups(pair[0]))

    def test_old_schema_entry_skipped(self, tmp_path, pair, monkeypatch):
        cache = seed_cache(tmp_path, pair, n=1)
        _, summary = pair
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "SCHEMA_VERSION", SCHEMA_VERSION - 1)
            cache.put("0" * 63 + "d", summary)
        corpus = load_corpus(cache.root)
        assert corpus.stats.skipped_schema == 1
        assert corpus.stats.entries_loaded == 1

    def test_pre_scenario_entry_skipped(self, tmp_path, pair):
        scenario, summary = pair
        cache = ResultCache(tmp_path / "cache")
        cache.put("0" * 64, summary)  # scenario not stored (old writer)
        cache.put("1" * 64, summary, scenario=scenario)
        corpus = load_corpus(cache.root)
        assert corpus.stats.skipped_no_scenario == 1
        assert corpus.stats.entries_loaded == 1

    def test_read_entry_statuses(self, tmp_path, pair):
        scenario, summary = pair
        cache = seed_cache(tmp_path, pair, n=1)
        assert read_entry(cache.entries()[0])[0] == "ok"
        bad = tmp_path / "bad.entry"
        bad.write_bytes(b"\x1f\x8b garbage")
        assert read_entry(bad)[0] == "corrupt"

    def test_scenario_text_the_decoder_refuses_is_corrupt(self, tmp_path, pair, monkeypatch):
        scenario, summary = pair
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "canonical_text", lambda _: "D:os.path.Foo{}")
            cache.put("0" * 64, summary, scenario=scenario)
        path = cache.entries()[0]
        assert read_entry(path)[0] == "corrupt"
        assert path.exists()
        assert load_corpus(cache.root).stats.skipped_corrupt == 1

    def test_stats_render_mentions_skips(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair, n=1)
        (cache.entries()[0].parent / ("0" * 63 + "c.entry")).write_bytes(b"xx")
        text = str(load_corpus(cache.root).stats)
        assert "corrupt=1" in text


class TestSplitsAndPairs:
    def test_holdout_split_every_fourth(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair, n=6)
        corpus = load_corpus(cache.root)
        train, held = holdout_split(corpus, every=4)
        assert train.n_rows + held.n_rows == corpus.n_rows
        assert held.n_rows == corpus.n_rows // 4
        assert held.rows == corpus.rows[3::4]
        with pytest.raises(ValueError):
            holdout_split(corpus, every=1)

    def test_cache_round_trip_gives_the_in_memory_corpus(self, tmp_path, pair):
        scenario, summary = pair
        pairs = [
            (dataclasses.replace(scenario, name=f"corpus-test-{i}", seed=i), summary)
            for i in range(3)
        ]
        cache = ResultCache(tmp_path / "cache")
        for one, result in pairs:
            cache.put(scenario_key(one), result, scenario=one)
        loaded = load_corpus(cache.root)
        in_memory = corpus_from_pairs(sorted(pairs, key=lambda item: scenario_key(item[0])))
        assert loaded.n_rows == in_memory.n_rows == 3 * len(scenario_cgroups(scenario))
        assert loaded.digest() == in_memory.digest()

    def test_corpus_from_pairs_preserves_order(self, pair):
        scenario, summary = pair
        corpus = corpus_from_pairs([(scenario, summary), (scenario, summary)])
        assert corpus.stats.entries_loaded == 2
        assert corpus.n_rows == 2 * len(scenario_cgroups(scenario))


class TestAutoFallback:
    def test_small_corpus_falls_back_with_notice(self, tmp_path, pair):
        cache = seed_cache(tmp_path, pair, n=2)  # 4 rows << MIN_CORPUS_ROWS
        settings = mini_settings()
        settings.surrogate = "auto"
        executor = SimpleNamespace(cache=cache)
        model, notices = resolve_surrogate_model(settings, executor)
        assert model is None
        assert len(notices) == 1
        assert "falling back to pure simulator search" in notices[0]
        assert f"< {MIN_CORPUS_ROWS} required" in notices[0]

    def test_off_is_silent(self):
        settings = mini_settings()
        model, notices = resolve_surrogate_model(settings, None)
        assert model is None and notices == []

    def test_saved_model_path_loads(self, tmp_path, pair):
        import numpy as np

        from repro.surrogate.filter import fit_from_corpus
        from repro.surrogate.model import SurrogateConfig

        cache = seed_cache(tmp_path, pair, n=20)
        corpus = load_corpus(cache.root)
        model = fit_from_corpus(
            corpus, config=SurrogateConfig(n_members=2, n_rounds=5)
        )
        path = tmp_path / "model.json"
        model.save(path)
        settings = mini_settings()
        settings.surrogate = str(path)
        loaded, notices = resolve_surrogate_model(settings, None)
        assert notices == []
        assert loaded.n_rows == corpus.n_rows
        X, _ = corpus.matrices()
        np.testing.assert_array_equal(
            loaded.predict(X)[0], model.predict(X)[0]
        )

    def test_saved_model_for_another_feature_schema_is_refused(self, tmp_path, pair):
        from repro.surrogate.filter import fit_from_corpus
        from repro.surrogate.model import SurrogateConfig, SurrogateModel
        from repro.tools.cli import main

        cache = seed_cache(tmp_path, pair, n=20)
        corpus = load_corpus(cache.root)
        doc = fit_from_corpus(
            corpus, config=SurrogateConfig(n_members=2, n_rounds=5)
        ).to_json_dict()
        renamed = list(doc["feature_names"])
        renamed[0], renamed[1] = renamed[1], renamed[0]
        cases = {
            "feature schema v": {
                "feature_schema_version": FEATURE_SCHEMA_VERSION + 1
            },
            re.escape(f"column 0 is {renamed[0]!r}"): {"feature_names": renamed},
        }
        for message, edit in cases.items():
            path = tmp_path / "model.json"
            SurrogateModel.from_json_dict({**doc, **edit}).save(path)
            settings = mini_settings()
            settings.surrogate = str(path)
            with pytest.raises(ValueError, match=message):
                resolve_surrogate_model(settings, None)
            for argv in (
                ["tune", "--mini", f"--surrogate={path}"],
                ["surrogate", "eval", "--model", str(path)],
                ["surrogate", "report", "--model", str(path)],
            ):
                with pytest.raises(SystemExit, match=message):
                    main(argv + ["--cache-dir", str(cache.root)])
