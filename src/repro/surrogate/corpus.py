"""Training corpora from the ``.isolbench-cache/`` result store.

Every sweep the executor runs leaves ``(Scenario, ScenarioSummary)``
pairs behind in the content-addressed cache -- free training data. This
module turns them into the ``(X, y)`` matrices
:func:`~repro.surrogate.model.fit_surrogate` consumes: one row per
``(scenario, cgroup)`` with features from
:mod:`repro.surrogate.features` and full-speed
``(p99_us, bandwidth_mib_s, util)`` targets.

Loading is **defensive and deterministic**: entries are read in sorted
path order (so identical cache contents produce identical corpora,
hence bit-identical refits), and anything unusable is *counted and
skipped*, never fatal -- truncated or bit-flipped entries, scenario text
the decoder refuses, other schema versions, and entries stored without
a scenario (see :meth:`repro.exec.cache.ResultCache.put`) all become
:class:`CorpusStats` counters. Entries are read through
:meth:`~repro.exec.cache.ResultCache.read_entry`; each scenario is
rebuilt from its stored canonical text by
:func:`~repro.exec.cachekey.decode_canonical`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import Scenario
from repro.exec.cache import ResultCache
from repro.exec.cachekey import decode_canonical
from repro.exec.summary import ScenarioSummary
from repro.surrogate.features import (
    FEATURE_SCHEMA_VERSION,
    TARGET_NAMES,
    feature_names,
    featurize,
    scenario_cgroups,
    targets_from_summary,
    utilization_reference_mib_s,
)

#: Fewest rows ``--surrogate=auto`` will fit on; below this the tuner
#: falls back to pure-simulator search with an explicit notice.
MIN_CORPUS_ROWS = 32


@dataclass
class CorpusStats:
    """What the loader saw: usable rows and every skip, by cause."""

    #: Cache entry files inspected.
    entries_seen: int = 0
    #: Entries that contributed at least one training row.
    entries_loaded: int = 0
    #: Unreadable files (truncated, bit-flipped, undecodable scenario).
    skipped_corrupt: int = 0
    #: Entries with a non-current cache schema version.
    skipped_schema: int = 0
    #: Valid entries written before scenarios were stored alongside
    #: summaries (they cache fine but cannot be featurized).
    skipped_no_scenario: int = 0
    #: Entries whose scenario or summary failed featurization.
    skipped_unfeaturizable: int = 0

    @property
    def skipped(self) -> int:
        """Total entries skipped for any reason."""
        return (
            self.skipped_corrupt
            + self.skipped_schema
            + self.skipped_no_scenario
            + self.skipped_unfeaturizable
        )

    def __str__(self) -> str:
        parts = [f"{self.entries_loaded}/{self.entries_seen} entries loaded"]
        if self.skipped:
            parts.append(
                f"skipped {self.skipped} "
                f"(corrupt={self.skipped_corrupt} schema={self.skipped_schema} "
                f"no-scenario={self.skipped_no_scenario} "
                f"unfeaturizable={self.skipped_unfeaturizable})"
            )
        return ", ".join(parts)

    def to_json_dict(self) -> dict:
        """Plain-dict form for reports."""
        return {
            "entries_seen": self.entries_seen,
            "entries_loaded": self.entries_loaded,
            "skipped_corrupt": self.skipped_corrupt,
            "skipped_schema": self.skipped_schema,
            "skipped_no_scenario": self.skipped_no_scenario,
            "skipped_unfeaturizable": self.skipped_unfeaturizable,
        }


@dataclass(frozen=True)
class CorpusRow:
    """One training example: a ``(scenario, cgroup)`` pair."""

    #: The source scenario's name (provenance; not a feature).
    scenario_name: str
    #: The cgroup the targets describe.
    cgroup: str
    #: Feature vector in :func:`~repro.surrogate.features.feature_names`
    #: order.
    features: tuple[float, ...]
    #: ``(p99_us, bandwidth_mib_s, util)`` at full device speed.
    targets: tuple[float, float, float]


@dataclass
class Corpus:
    """An ordered, reproducible training set with load provenance."""

    #: Feature-encoding version of every row.
    feature_schema_version: int = FEATURE_SCHEMA_VERSION
    #: Column names (order contract with the model).
    feature_names: tuple[str, ...] = field(default_factory=feature_names)
    #: Training rows in deterministic (sorted-entry, sorted-cgroup) order.
    rows: list[CorpusRow] = field(default_factory=list)
    #: Loader counters.
    stats: CorpusStats = field(default_factory=CorpusStats)

    @property
    def n_rows(self) -> int:
        """Number of training rows."""
        return len(self.rows)

    def matrices(self):
        """The ``(X, y)`` numpy training matrices."""
        import numpy as np

        if not self.rows:
            return (
                np.empty((0, len(self.feature_names))),
                np.empty((0, len(TARGET_NAMES))),
            )
        X = np.asarray([row.features for row in self.rows], dtype=float)
        y = np.asarray([row.targets for row in self.rows], dtype=float)
        return X, y

    def digest(self) -> str:
        """SHA-256 over the full row content (corpus identity)."""
        hasher = hashlib.sha256()
        for row in self.rows:
            hasher.update(
                repr(
                    (row.scenario_name, row.cgroup, row.features, row.targets)
                ).encode()
            )
        return hasher.hexdigest()

    def extend_from_pair(self, scenario: Scenario, summary: ScenarioSummary) -> int:
        """Append one run's rows (one per cgroup); returns rows added."""
        reference = utilization_reference_mib_s(scenario)
        added = 0
        for cgroup in scenario_cgroups(scenario):
            features = tuple(featurize(scenario, cgroup))
            targets = targets_from_summary(summary, cgroup, reference)
            self.rows.append(
                CorpusRow(
                    scenario_name=scenario.name,
                    cgroup=cgroup,
                    features=features,
                    targets=targets,
                )
            )
            added += 1
        return added


def read_entry(path: Path) -> tuple[str, Scenario | None, ScenarioSummary | None]:
    """Classify one cache entry file for corpus loading.

    Returns ``(status, scenario, summary)`` where status is one of
    ``ok`` / ``corrupt`` / ``schema`` / ``no_scenario``. Unlike
    :meth:`~repro.exec.cache.ResultCache.get`, this never unlinks
    anything -- the corpus is a read-only consumer of the cache.
    """
    status, summary, text = ResultCache.read_entry(path)
    if status != "ok":
        return status, None, None
    if text is None:
        return "no_scenario", None, None
    try:
        scenario = decode_canonical(text)
    except Exception:  # refused or malformed text, or a constructor's own check
        return "corrupt", None, None
    if not isinstance(scenario, Scenario):
        return "corrupt", None, None
    return "ok", scenario, summary


def load_corpus(cache_dir: Path | str | None = None) -> Corpus:
    """Load every usable cache entry into a corpus, sorted and counted.

    ``cache_dir`` defaults to the ambient cache location
    (:func:`~repro.exec.cache.default_cache_dir`). Entries are visited
    in sorted path order; unusable ones increment the matching
    :class:`CorpusStats` counter and are skipped, never fatal.
    """
    cache = ResultCache(Path(cache_dir)) if cache_dir is not None else ResultCache()
    corpus = Corpus()
    for path in cache.entries():
        corpus.stats.entries_seen += 1
        status, scenario, summary = read_entry(path)
        if status == "corrupt":
            corpus.stats.skipped_corrupt += 1
            continue
        if status == "schema":
            corpus.stats.skipped_schema += 1
            continue
        if status == "no_scenario":
            corpus.stats.skipped_no_scenario += 1
            continue
        try:
            corpus.extend_from_pair(scenario, summary)
        except Exception:
            corpus.stats.skipped_unfeaturizable += 1
            continue
        corpus.stats.entries_loaded += 1
    return corpus


def holdout_split(corpus: Corpus, every: int = 4) -> tuple[Corpus, Corpus]:
    """Deterministic train/held-out split: every ``every``-th row held out.

    Row order is already deterministic (sorted cache entries, sorted
    cgroups), so the same corpus always yields the same split -- the
    ``isol-bench surrogate eval`` command relies on this to report
    reproducible held-out error.
    """
    if every < 2:
        raise ValueError(f"every must be >= 2, got {every}")
    train = Corpus(
        feature_schema_version=corpus.feature_schema_version,
        feature_names=corpus.feature_names,
    )
    held = Corpus(
        feature_schema_version=corpus.feature_schema_version,
        feature_names=corpus.feature_names,
    )
    for i, row in enumerate(corpus.rows):
        (held if i % every == every - 1 else train).rows.append(row)
    return train, held


def corpus_from_pairs(pairs) -> Corpus:
    """Build a corpus from in-hand ``(scenario, summary)`` pairs.

    The D9 study uses this to train on its own sweep without round-
    tripping through a cache directory; rows appear in the order the
    pairs are given (callers pass a deterministic order).
    """
    corpus = Corpus()
    for scenario, summary in pairs:
        corpus.stats.entries_seen += 1
        try:
            corpus.extend_from_pair(scenario, summary)
        except Exception:
            corpus.stats.skipped_unfeaturizable += 1
            continue
        corpus.stats.entries_loaded += 1
    return corpus
