"""Content-addressed on-disk result cache.

Layout (under ``.isolbench-cache/`` by default, overridable with the
``ISOLBENCH_CACHE_DIR`` environment variable or an explicit path)::

    .isolbench-cache/
      ab/abcdef...1234.entry     # first two hex chars shard the dir
      cd/cdef01...5678.entry

An entry is never a pickle: 16 magic bytes, a CRC32 of everything after
it, the header length, a canonical JSON header (schema version, key, the
summary's scalar fields, each app's ``[name, cgroup, rows]`` and the
scenario's :func:`~repro.exec.cachekey.canonical_text`), then each app's
columns as raw little-endian bytes: times and latencies (float64), sizes
(int64), ops (int8). ``get`` maps the columns with ``np.frombuffer`` and
never decodes the scenario; the surrogate corpus does, through
:meth:`ResultCache.read_entry`. Reads are defensive: a truncated,
corrupt, wrong-key or wrong-schema file is treated as a *miss* (and
removed) -- a poisoned cache can cost a recomputation but never a crash
or a wrong result. Writes are atomic (temp file + ``os.replace``) so a
killed run cannot leave a half-written entry behind. Gzipped pickles
left by older releases (``*.pkl.gz``) are never opened; ``repro-cache
stats`` counts them and ``repro-cache clear`` removes them.

Invalidation is purely structural: the key hashes the full scenario
content plus :data:`~repro.exec.cachekey.SCHEMA_VERSION`, so editing a
scenario, a device preset or a knob parameter changes the key, while
unrelated code edits leave it stable. ``repro-cache clear`` (or
:meth:`ResultCache.clear`) wipes everything for simulator-semantics
changes that keys cannot see.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cpu.accounting import CpuReport
from repro.exec.cachekey import SCHEMA_VERSION, canonical_text
from repro.exec.summary import ScenarioSummary
from repro.metrics.collector import COLUMNS, CompletionLog

_ENV_VAR = "ISOLBENCH_CACHE_DIR"
_DEFAULT_DIRNAME = ".isolbench-cache"

_SUFFIX = ".entry"
_LEGACY_SUFFIX = ".pkl.gz"
_MAGIC = b"isolbench-entry\n"
_CRC = struct.Struct("<I")
_LENGTH = struct.Struct("<Q")
_HEADER_AT = len(_MAGIC) + _CRC.size + _LENGTH.size
#: Summary fields the header stores as ordered [name, value] pairs.
_COUNTERS = ("fault_counters", "ctl_counters")


def default_cache_dir() -> Path:
    """``$ISOLBENCH_CACHE_DIR`` or ``./.isolbench-cache``."""
    return Path(os.environ.get(_ENV_VAR, _DEFAULT_DIRNAME))


class _SchemaMismatch(ValueError):
    """An intact entry written under another ``SCHEMA_VERSION``."""


def _decode_entry(data: bytes) -> tuple[dict, ScenarioSummary]:
    """Header and summary of one entry file; raises when it is malformed."""
    (crc,) = _CRC.unpack_from(data, len(_MAGIC))
    body = memoryview(data)[len(_MAGIC) + _CRC.size :]
    if data[: len(_MAGIC)] != _MAGIC or zlib.crc32(body) != crc:
        raise ValueError("not an intact cache entry")
    offset = _HEADER_AT + _LENGTH.unpack_from(data, _HEADER_AT - _LENGTH.size)[0]
    header = json.loads(data[_HEADER_AT:offset])
    if header["schema_version"] != SCHEMA_VERSION:
        raise _SchemaMismatch(f"schema {header['schema_version']!r}")
    apps = {}
    for name, cgroup_path, rows in header["apps"]:
        if not isinstance(rows, int) or rows < 0:
            raise ValueError(f"bad row count {rows!r}")
        columns = []
        for _, dtype in COLUMNS:
            columns.append(np.frombuffer(data, dtype=dtype, count=rows, offset=offset))
            offset += columns[-1].nbytes
        apps[name] = CompletionLog(name, cgroup_path, *columns)
    if offset != len(data):
        raise ValueError("entry length does not match its header")
    fields = dict(header["summary"], cpu=CpuReport(**header["summary"]["cpu"]))
    for name in _COUNTERS:
        fields[name] = dict(fields[name])
    return header, ScenarioSummary(apps=apps, **fields)


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s)"
            + (f", {self.corrupt} corrupt entr(ies) dropped" if self.corrupt else "")
        )


@dataclass
class ResultCache:
    """SHA-256-keyed store of :class:`ScenarioSummary` objects."""

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, key: str) -> Path:
        """Entry location: ``<root>/<key[:2]>/<key>.entry``."""
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def get(self, key: str) -> ScenarioSummary | None:
        """The stored summary, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            header, summary = _decode_entry(path.read_bytes())
            if header["key"] != key:
                raise ValueError("entry stored under another key")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncation, bit rot, another key or schema: drop + miss.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return summary

    @staticmethod
    def read_entry(path: Path) -> tuple[str, ScenarioSummary | None, str | None]:
        """Classify one entry file without ever unlinking it.

        Returns ``(status, summary, scenario_text)``: status ``ok``,
        ``schema`` (intact, another schema version) or ``corrupt``
        (anything else, a key that is not the file's name included);
        ``scenario_text`` is None when the writer stored no scenario.
        """
        path = Path(path)
        try:
            header, summary = _decode_entry(path.read_bytes())
        except _SchemaMismatch:
            return "schema", None, None
        except Exception:
            return "corrupt", None, None
        if f"{header['key']}{_SUFFIX}" != path.name:
            return "corrupt", None, None
        return "ok", summary, header["scenario"]

    def put(self, key: str, summary: ScenarioSummary, scenario=None) -> None:
        """Store atomically; concurrent writers of the same key are safe.

        ``scenario`` (the :class:`~repro.core.config.Scenario` that
        produced the summary) is stored as canonical text when given,
        so the entry doubles as surrogate training data
        (:func:`repro.surrogate.corpus.load_corpus`); ``get`` ignores
        it. The header and each column buffer are written in turn.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        apps, scalars = summary.apps, summary.scalar_fields()
        for name in _COUNTERS:
            scalars[name] = list(scalars[name].items())
        header = {
            "apps": [[name, log.cgroup_path, len(log.times)] for name, log in apps.items()],
            "key": key,
            "scenario": None if scenario is None else canonical_text(scenario),
            "schema_version": SCHEMA_VERSION,
            "summary": scalars,
        }
        header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        body = [_LENGTH.pack(len(header_bytes)), header_bytes] + [
            np.ascontiguousarray(getattr(log, name), dtype=dtype)
            for log in apps.values()
            for name, dtype in COLUMNS
        ]
        crc = 0
        for chunk in body:
            crc = zlib.crc32(chunk, crc)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC + _CRC.pack(crc))
                for chunk in body:
                    fh.write(chunk)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self, suffix: str = _SUFFIX) -> list[Path]:
        """All entry files currently on disk, sorted.

        ``suffix=".pkl.gz"`` lists the gzipped-pickle entries of older
        releases instead, which nothing reads.
        """
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"??/*{suffix}"))

    def size_bytes(self, suffix: str = _SUFFIX) -> int:
        """Total on-disk size of :meth:`entries` in bytes."""
        return sum(path.stat().st_size for path in self.entries(suffix))

    def clear(self) -> int:
        """Remove every entry, legacy ones included; returns the number removed."""
        removed = 0
        for path in self.entries() + self.entries(_LEGACY_SUFFIX):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def main(argv: list[str] | None = None) -> int:
    """``repro-cache``: inspect or clear the scenario result cache."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Manage the isol-bench scenario result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: ${_ENV_VAR} or {_DEFAULT_DIRNAME}/)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", help="entry count and total size")
    sub.add_parser("path", help="print the cache directory path")
    sub.add_parser("clear", help="remove every cached result")
    args = parser.parse_args(argv)

    cache = ResultCache(Path(args.cache_dir) if args.cache_dir else default_cache_dir())
    if args.command == "path":
        print(cache.root)
    elif args.command == "stats":
        print(
            f"{cache.root}: {len(cache.entries())} entr(ies), "
            f"{cache.size_bytes() / 1024.0:.1f} KiB; "
            f"{len(cache.entries(_LEGACY_SUFFIX))} legacy {_LEGACY_SUFFIX} file(s), "
            f"{cache.size_bytes(_LEGACY_SUFFIX) / 1024.0:.1f} KiB"
        )
    elif args.command == "clear":
        removed = cache.clear()
        print(f"{cache.root}: removed {removed} entr(ies)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
