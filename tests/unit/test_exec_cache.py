"""ResultCache entry files: the columnar format, its defences, legacy files.

An entry is ``magic | crc32 | header length | JSON header | raw columns``
(see :mod:`repro.exec.cache`). Every damaged or mismatched entry must be
a counted, unlinked miss in ``get`` and a classification in
``read_entry`` -- never an exception and never a wrong summary. Files
that older releases wrote as gzipped pickles (``*.pkl.gz``) are never
opened, only counted and cleared.
"""

import ast
import gzip
import json
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import NoneKnob, Scenario
from repro.exec import cache as cache_module
from repro.exec.cache import ResultCache, main
from repro.exec.cachekey import SCHEMA_VERSION, scenario_key
from repro.exec.summary import run_scenario_summary
from repro.workloads.apps import batch_app, lc_app

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
KEY = "ab" + "0" * 62
OTHER_KEY = "ab" + "1" * 62


@pytest.fixture(scope="module")
def entry():
    """``(summary, scenario, good bytes, wrong-schema bytes, header end)``."""
    scenario = Scenario(
        name="entry-format",
        knob=NoneKnob(),
        apps=[lc_app("lc0", "/t/a"), batch_app("batch0", "/t/b")],
        duration_s=0.03,
        warmup_s=0.01,
        device_scale=16.0,
    )
    summary = run_scenario_summary(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.put(KEY, summary, scenario=scenario)
        good = cache.path_for(KEY).read_bytes()
        original = cache_module.SCHEMA_VERSION
        cache_module.SCHEMA_VERSION = original - 1
        try:
            cache.put(KEY, summary, scenario=scenario)
        finally:
            cache_module.SCHEMA_VERSION = original
        stale = cache.path_for(KEY).read_bytes()
    header_end = 28 + int.from_bytes(good[20:28], "little")
    return summary, scenario, good, stale, header_end


class TestRoundTrip:
    def test_get_returns_the_stored_content(self, entry, tmp_path):
        summary, scenario, good, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        assert cache.path_for(KEY).read_bytes() == good  # deterministic bytes
        hit = cache.get(KEY)
        assert json.dumps(hit.to_json_dict(), sort_keys=True) == json.dumps(
            summary.to_json_dict(), sort_keys=True
        )
        assert list(hit.apps) == list(summary.apps)
        assert list(hit.ctl_counters) == list(summary.ctl_counters)

    def test_header_is_canonical_json_with_the_scenario_text(self, entry):
        _, scenario, good, _, header_end = entry
        assert good.startswith(b"isolbench-entry\n")
        header = json.loads(good[28:header_end])
        assert header["schema_version"] == SCHEMA_VERSION == 5
        assert header["key"] == KEY
        assert [app[0] for app in header["apps"]] == ["batch0", "lc0"]
        assert header["scenario"].startswith("D:repro.core.config.Scenario{")
        assert good[28:header_end] == json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode()
        # Each app's four columns fill the rest: 8 + 8 + 8 + 1 bytes a row.
        rows = sum(app[2] for app in header["apps"])
        assert len(good) == header_end + 25 * rows

    def test_read_entry_reports_scenario_text(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary)
        status, read, text = ResultCache.read_entry(cache.path_for(KEY))
        assert (status, text) == ("ok", None)
        assert read.content_equal(summary)


def _mutations():
    """One damaged-entry recipe: (kind, offset-ish draw, byte draw)."""
    return st.tuples(
        st.sampled_from(["truncate", "flip", "trailing", "wrong_key", "wrong_schema"]),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=255),
    )


class TestDamagedEntries:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutation=_mutations())
    def test_every_damage_is_a_counted_unlinked_miss(self, entry, mutation):
        _, _, good, stale, header_end = entry
        kind, where, xor = mutation
        key, expected = KEY, "corrupt"
        if kind == "truncate":
            data = good[: where % len(good)]
        elif kind == "flip":
            # Magic, checksum, header length or header.
            at = where % header_end
            data = good[:at] + bytes([good[at] ^ xor]) + good[at + 1 :]
        elif kind == "trailing":
            data = good + bytes([xor]) * (1 + where % 16)
        elif kind == "wrong_key":
            key, data = OTHER_KEY, good
        else:
            data, expected = stale, "schema"
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            path = cache.path_for(key)
            path.parent.mkdir(parents=True)
            path.write_bytes(data)
            assert ResultCache.read_entry(path)[0] == expected
            assert path.read_bytes() == data  # classification never unlinks
            assert cache.get(key) is None
            assert (cache.stats.corrupt, cache.stats.misses, cache.stats.hits) == (1, 1, 0)
            assert not path.exists()


class TestLegacyEntries:
    def test_pickle_files_are_never_opened_only_counted_and_cleared(
        self, entry, tmp_path, capsys
    ):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(scenario_key(scenario), summary, scenario=scenario)
        legacy = tmp_path / KEY[:2] / f"{KEY}.pkl.gz"
        payload = gzip.compress(b"an entry from an older release")
        legacy.parent.mkdir(exist_ok=True)
        legacy.write_bytes(payload)

        assert cache.get(KEY) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert legacy.read_bytes() == payload  # untouched, not dropped
        assert cache.entries() == [cache.path_for(scenario_key(scenario))]
        assert cache.entries(".pkl.gz") == [legacy]

        assert main(["--cache-dir", str(tmp_path), "stats"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"{tmp_path}: 1 entr(ies), ")
        assert line.endswith(f"; 1 legacy .pkl.gz file(s), {len(payload) / 1024.0:.1f} KiB")

        assert main(["--cache-dir", str(tmp_path), "clear"]) == 0
        assert capsys.readouterr().out.strip() == f"{tmp_path}: removed 2 entr(ies)"
        assert cache.entries() == cache.entries(".pkl.gz") == []


@pytest.mark.parametrize("module", ["exec/cache.py", "surrogate/corpus.py"])
def test_cache_readers_import_neither_pickle_nor_gzip(module):
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not imported & {"pickle", "gzip", "_pickle"}, imported
