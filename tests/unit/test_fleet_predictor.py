"""Unit tests for surrogate-predicted interference-matrix pairs.

``build_matrix(measure_pairs=k, predictor=...)`` measures only the
first ``k`` tenant pairs and lets the predictor stand in for the rest.
The matrix must stay complete, predicted effects must carry
``predicted=True`` (and say so in JSON), and capping without a
predictor must be an explicit error rather than a silent hole.
"""

from collections import Counter

import pytest

from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.exec.summary import ScenarioSummary
from repro.fleet.interference import (
    MINI_MATRIX,
    PairEffect,
    build_matrix,
    matrix_scenarios,
    tenant_pairs,
)
from repro.fleet.spec import demo_fleet
from repro.surrogate.corpus import corpus_from_pairs
from repro.surrogate.filter import fit_from_corpus
from repro.surrogate.model import SurrogateConfig
from repro.surrogate.predictor import SurrogatePairPredictor


@pytest.fixture(scope="module")
def fleet():
    return demo_fleet()


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    with SweepExecutor(max_workers=1, cache=cache) as ex:
        yield ex


@pytest.fixture(scope="module")
def predictor(fleet, executor):
    """A predictor trained on the fleet's own measurement scenarios."""
    scenarios = matrix_scenarios(fleet, MINI_MATRIX)
    summaries = executor.run_strict(scenarios)
    corpus = corpus_from_pairs(zip(scenarios, summaries))
    model = fit_from_corpus(corpus, config=SurrogateConfig(n_members=2, n_rounds=8))
    return SurrogatePairPredictor(model=model, fleet=fleet, settings=MINI_MATRIX)


class TestPredictorHook:
    def test_capping_without_predictor_is_an_error(self, fleet, executor):
        with pytest.raises(ValueError, match="pass predictor="):
            build_matrix(fleet, MINI_MATRIX, executor=executor, measure_pairs=1)

    def test_predicted_pairs_complete_the_matrix(self, fleet, executor, predictor):
        pairs = tenant_pairs(fleet)
        assert len(pairs) >= 2, "demo fleet must have pairs to predict"
        matrix = build_matrix(
            fleet,
            MINI_MATRIX,
            executor=executor,
            predictor=predictor,
            measure_pairs=1,
        )
        assert predictor.predicted_pairs == len(pairs) - 1
        # Complete: every directional effect present.
        assert len(matrix.effects) == 2 * len(pairs)
        first, second = pairs[0]
        assert not matrix.effects[(first.name, second.name)].predicted
        for a, b in pairs[1:]:
            assert matrix.effects[(a.name, b.name)].predicted
            assert matrix.effects[(b.name, a.name)].predicted

    def test_predicted_effects_respect_measured_clamps(
        self, fleet, executor, predictor
    ):
        matrix = build_matrix(
            fleet,
            MINI_MATRIX,
            executor=executor,
            predictor=predictor,
            measure_pairs=0,
        )
        for effect in matrix.effects.values():
            assert effect.predicted
            assert effect.p99_ratio >= 1.0
            assert 0.0 < effect.bandwidth_retention <= 1.0

    def test_full_measurement_is_unchanged_by_the_hook(
        self, fleet, executor, predictor
    ):
        # predictor present but nothing capped: all effects measured.
        matrix = build_matrix(
            fleet, MINI_MATRIX, executor=executor, predictor=predictor
        )
        assert all(not effect.predicted for effect in matrix.effects.values())


def test_build_matrix_computes_cgroup_stats_once_per_summary(
    fleet, executor, monkeypatch
):
    """A pair summary measures both tenants from one ``cgroup_stats()``."""
    scenarios = matrix_scenarios(fleet, MINI_MATRIX)
    executor.run_strict(scenarios)  # fill the cache before counting
    calls = Counter()
    accessor = ScenarioSummary.cgroup_stats

    def counted(self):
        calls[id(self)] += 1
        return accessor(self)

    monkeypatch.setattr(ScenarioSummary, "cgroup_stats", counted)
    build_matrix(fleet, MINI_MATRIX, executor=executor)
    assert len(calls) == len(scenarios)
    assert set(calls.values()) == {1}


class TestPairEffectSerialization:
    def test_predicted_flag_only_when_true(self):
        measured = PairEffect(
            tenant="a", partner="b", p99_ratio=1.5, bandwidth_retention=0.8
        )
        predicted = PairEffect(
            tenant="a",
            partner="b",
            p99_ratio=1.5,
            bandwidth_retention=0.8,
            predicted=True,
        )
        assert "predicted" not in measured.to_json_dict()
        assert predicted.to_json_dict()["predicted"] is True

    def test_round_trip(self):
        effect = PairEffect(
            tenant="a",
            partner="b",
            p99_ratio=2.0,
            bandwidth_retention=0.5,
            predicted=True,
        )
        assert PairEffect.from_json_dict(effect.to_json_dict()) == effect
