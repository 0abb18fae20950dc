"""ResultCache entry files: the columnar format, its defences, legacy files.

An entry is ``magic | crc32 | header length | JSON header | raw columns``
(see :mod:`repro.exec.cache`), the JSON padded with spaces so the first
app's columns start 8-byte aligned. Every damaged or mismatched entry
must be a counted, unlinked miss in ``get`` and a classification in
``read_entry`` -- never an exception and never a wrong summary; a read
error that says nothing about the content is an uncounted miss that
keeps the file. A summary ``get`` returns reads its columns in place
from the mapped file, and keeps reading them after its entry is unlinked
or replaced; past the mapping budget (a share of the descriptor limit)
it reads them from a copy, so a warm sweep never runs out of
descriptors. Files that older releases wrote as gzipped pickles
(``*.pkl.gz``) are never opened, only counted and cleared.
"""

import ast
import dataclasses
import gzip
import json
import mmap
import os
import pathlib
import pickle
import struct
import subprocess
import sys
import tempfile
import weakref
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import NoneKnob, Scenario
from repro.exec import cache as cache_module
from repro.exec.cache import ResultCache, main
from repro.exec.cachekey import SCHEMA_VERSION, scenario_key
from repro.exec.summary import run_scenario_summary
from repro.metrics.collector import COLUMNS
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
        assert header["schema_version"] == SCHEMA_VERSION == 6
        assert header["key"] == KEY
        assert [app[0] for app in header["apps"]] == ["batch0", "lc0"]
        assert header["scenario"].startswith("D:repro.core.config.Scenario{")
        # Compact JSON, then 0-7 spaces up to an 8-byte boundary.
        compact = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert good[28:header_end] == compact + b" " * (header_end - 28 - len(compact))
        assert 0 <= header_end - 28 - len(compact) <= 7
        assert header_end % 8 == 0
        # Each app's four columns fill the rest: 8 + 8 + 8 + 1 bytes a row.
        rows = sum(app[2] for app in header["apps"])
        assert len(good) == header_end + 25 * rows

    def test_first_app_columns_of_a_hit_are_8_byte_aligned(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        first = next(iter(cache.get(KEY).apps.values()))
        for name, _ in COLUMNS:
            column = getattr(first, name)
            assert len(column) > 0
            assert column.ctypes.data % 8 == 0, name
            assert not column.flags.writeable

    def test_unpadded_entry_reads_alike(self, entry, tmp_path):
        """An entry in the unpadded layout of older writers still reads."""
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        path = cache.path_for(KEY)
        # ``wall_seconds`` texts 3, 4 and 5 bytes long give three
        # consecutive header lengths; at least two leave the unpadded
        # columns unaligned.
        for wall_seconds in (0.5, 0.25, 0.125):
            stored = dataclasses.replace(summary, wall_seconds=wall_seconds)
            cache.put(KEY, stored, scenario=scenario)
            good = path.read_bytes()
            header_end = 28 + int.from_bytes(good[20:28], "little")
            compact = good[28:header_end].rstrip(b" ")
            if (28 + len(compact)) % 8:
                break
        assert (28 + len(compact)) % 8  # its columns start unaligned
        body = struct.pack("<Q", len(compact)) + compact + good[header_end:]
        path.write_bytes(b"isolbench-entry\n" + struct.pack("<I", zlib.crc32(body)) + body)

        status, read, text = ResultCache.read_entry(path)
        assert (status, text) == ("ok", json.loads(compact)["scenario"])
        assert read.content_equal(summary)
        hit = cache.get(KEY)
        assert hit is not None and hit.content_equal(summary)
        assert next(iter(hit.apps.values())).times.ctypes.data % 8

    def test_past_the_mapping_budget_a_hit_reads_a_copy(
        self, entry, tmp_path, monkeypatch
    ):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        monkeypatch.setattr(cache_module, "_mapped", weakref.WeakSet())
        monkeypatch.setattr(cache_module, "_map_budget", lambda: 1)
        mapped, copied = cache.get(KEY), cache.get(KEY)
        assert len(cache_module._mapped) == 1
        # A view of a mapping is based on a memoryview of it.
        assert isinstance(next(iter(mapped.apps.values())).times.base.obj, mmap.mmap)
        assert isinstance(next(iter(copied.apps.values())).times.base, bytes)
        assert mapped.content_equal(summary) and copied.content_equal(summary)
        assert cache.stats.hits == 2

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
            # Magic, checksum, header length or header, padding included.
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


def _in_child(script: str, *args) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: ``get`` in a child whose descriptors are all in use, then again.
_DRAIN_AND_GET = f"""
import errno, json, os, resource, sys
from repro.exec.cache import ResultCache

cache = ResultCache(sys.argv[1])
path = cache.path_for({KEY!r})
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
held = []
try:
    while len(held) < 64:
        held.append(os.open(os.devnull, os.O_RDONLY))
except OSError as exc:
    assert exc.errno == errno.EMFILE, exc
assert len(held) < 64, "the descriptor limit did not apply"
miss = cache.get({KEY!r})
after_miss = [path.exists(), cache.stats.corrupt, cache.stats.misses]
for fd in held:
    os.close(fd)
hit = cache.get({KEY!r})
print(json.dumps({{
    "miss": miss is None,
    "after_miss": after_miss,
    "hit": hit is not None,
    "stats": [cache.stats.hits, cache.stats.misses, cache.stats.corrupt],
}}))
"""

#: A warm sweep in a child whose soft descriptor limit is 64.
_WARM_SWEEP = """
import json, pickle, resource, sys

hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor

with open(sys.argv[2], "rb") as f:
    scenarios = pickle.load(f)
with SweepExecutor(max_workers=2, cache=ResultCache(sys.argv[1])) as executor:
    results = executor.run(scenarios)
    print(json.dumps({
        "executed": executor.stats.executed,
        "hits": executor.cache.stats.hits,
        "alike": all(r.content_equal(results[0]) for r in results),
    }))
"""


class TestReadErrors:
    def test_out_of_descriptors_is_a_miss_that_keeps_the_entry(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        report = _in_child(_DRAIN_AND_GET, tmp_path)
        assert report["miss"]
        # Still on disk, not counted as corrupt: (exists, corrupt, misses).
        assert report["after_miss"] == [True, 0, 1]
        assert report["hit"]
        assert report["stats"] == [1, 1, 0]
        assert ResultCache(tmp_path).get(KEY).content_equal(summary)

    def test_a_warm_sweep_past_the_descriptor_limit_executes_nothing(
        self, entry, tmp_path
    ):
        """A sweep holds every hit of its batch until the batch returns,
        so a batch of more hits than descriptors must not map them all."""
        summary, scenario, _, _, _ = entry
        scenarios = [dataclasses.replace(scenario, seed=seed) for seed in range(100)]
        cache = ResultCache(tmp_path / "cache")
        for each in scenarios:
            cache.put(scenario_key(each), summary, scenario=each)
        batch = tmp_path / "scenarios.pkl"
        batch.write_bytes(pickle.dumps(scenarios))
        report = _in_child(_WARM_SWEEP, cache.root, batch)
        assert report == {"executed": 0, "hits": 100, "alike": True}


class TestMappedLifetime:
    """A hit reads its columns from the mapped entry for as long as it lives."""

    def test_hit_outlives_clear(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        hit = cache.get(KEY)
        assert cache.clear() == 1
        assert not cache.path_for(KEY).exists()
        assert hit.content_equal(summary)

    def test_hit_outlives_a_replacing_put(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        first_app = next(iter(summary.apps))
        other = dataclasses.replace(
            summary, seed=summary.seed + 1, apps={first_app: summary.apps[first_app]}
        )
        assert not other.content_equal(summary)
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        hit = cache.get(KEY)
        cache.put(KEY, other, scenario=scenario)
        assert cache.get(KEY).content_equal(other)
        assert hit.content_equal(summary)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_dropping_a_hit_releases_its_descriptors(self, entry, tmp_path):
        summary, scenario, _, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.put(KEY, summary, scenario=scenario)
        before = len(os.listdir("/proc/self/fd"))
        hit = cache.get(KEY)
        assert hit is not None
        del hit
        assert len(os.listdir("/proc/self/fd")) == before


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
