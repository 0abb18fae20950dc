"""repro.surrogate: learn the simulator, search 100x wider.

Every cached sweep result is free training data. This package fits a
cheap, deterministic regressor on the ``.isolbench-cache/`` corpus --
Scenario -> per-cgroup (p99, bandwidth, util) -- and uses it to
prefilter knob-tuning candidate pools so the real simulator verifies
only the most promising top-k:

* :mod:`~repro.surrogate.features` -- total, NaN-free, permutation-
  stable Scenario -> fixed-width feature vectors in device-saturation
  units;
* :mod:`~repro.surrogate.corpus` -- sorted, schema-checked, skip-don't-
  crash loading of cache entries into (X, y) matrices;
* :mod:`~repro.surrogate.model` -- seeded ridge + gradient-boosted
  ensemble over numpy only, with ensemble-spread uncertainty and
  lossless JSON save/load (identical corpora -> bit-identical models);
* :mod:`~repro.surrogate.filter` -- the
  :class:`~repro.surrogate.filter.SurrogatePrefilter` that
  ``repro.tune.search`` calls, logging surrogate-vs-simulator error
  for every verified candidate;
* :mod:`~repro.surrogate.predictor` -- the fleet hook standing in for
  unmeasured interference-matrix pairs (``predicted=True`` effects).

``isol-bench surrogate {fit,eval,report}`` is the CLI front door;
:mod:`repro.core.d9_surrogate` (D9) proves the error bars with
budget-for-budget tune comparisons.
"""

from repro.metrics.agreement import mean_absolute_error, spearman
from repro.surrogate.corpus import (
    MIN_CORPUS_ROWS,
    Corpus,
    CorpusRow,
    CorpusStats,
    corpus_from_pairs,
    holdout_split,
    load_corpus,
)
from repro.surrogate.features import (
    FEATURE_SCHEMA_VERSION,
    TARGET_NAMES,
    feature_names,
    featurize,
    featurize_rows,
    featurize_scenario,
    scenario_cgroups,
    targets_from_stats,
)
from repro.surrogate.filter import (
    DEFAULT_POOL_FACTOR,
    RankedCandidate,
    SurrogatePrefilter,
    VerifiedRecord,
    fit_from_corpus,
)
from repro.surrogate.model import (
    MODEL_SCHEMA_VERSION,
    SurrogateConfig,
    SurrogateModel,
    evaluate_model,
    fit_surrogate,
)
from repro.surrogate.predictor import SurrogatePairPredictor

__all__ = [
    "MIN_CORPUS_ROWS",
    "Corpus",
    "CorpusRow",
    "CorpusStats",
    "corpus_from_pairs",
    "holdout_split",
    "load_corpus",
    "FEATURE_SCHEMA_VERSION",
    "TARGET_NAMES",
    "feature_names",
    "featurize",
    "featurize_rows",
    "featurize_scenario",
    "scenario_cgroups",
    "targets_from_stats",
    "DEFAULT_POOL_FACTOR",
    "RankedCandidate",
    "SurrogatePrefilter",
    "VerifiedRecord",
    "fit_from_corpus",
    "MODEL_SCHEMA_VERSION",
    "SurrogateConfig",
    "SurrogateModel",
    "evaluate_model",
    "fit_surrogate",
    "mean_absolute_error",
    "spearman",
    "SurrogatePairPredictor",
]
