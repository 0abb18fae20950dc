"""Unit tests for the numpy-only surrogate regressor.

Covers the determinism and serialization contracts (identical training
sets -> bit-identical saved models; save/load round-trips losslessly),
the metric helpers, and the seeded uncertainty-shrinks-with-data check
that complements the hypothesis suite.
"""

import numpy as np
import pytest

from repro.surrogate.model import (
    MODEL_SCHEMA_VERSION,
    SurrogateConfig,
    SurrogateModel,
    evaluate_model,
    fit_surrogate,
    mean_absolute_error,
    spearman,
    uncertainty_mean,
)

FAST = SurrogateConfig(n_members=3, n_rounds=10)
NAMES = ("qd", "size", "write_frac", "cap", "weight")


def training_set(rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(rows, len(NAMES)))
    p99 = 50.0 + 900.0 * X[:, 0] + 80.0 * X[:, 1] * X[:, 2]
    bw = 10.0 + 150.0 * (1.0 - X[:, 0]) + 20.0 * X[:, 3]
    util = bw / 250.0
    return X, np.stack([p99, bw, util], axis=1)


class TestFitAndPredict:
    def test_learns_a_monotone_response(self):
        X, y = training_set(200)
        model = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        metrics = evaluate_model(model, X, y)
        assert metrics["p99_us"]["spearman"] > 0.9
        assert metrics["bandwidth_mib_s"]["spearman"] > 0.9

    def test_predict_single_row_helper(self):
        X, y = training_set(64)
        model = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        means, stds = model.predict_one(X[0])
        assert set(means) == {"p99_us", "bandwidth_mib_s", "util"}
        assert all(value >= 0.0 for value in stds.values())

    def test_input_validation(self):
        X, y = training_set(16)
        with pytest.raises(ValueError):
            fit_surrogate(X[:1], y[:1], NAMES, config=FAST)
        with pytest.raises(ValueError):
            fit_surrogate(X, y[:, :2], NAMES, config=FAST)
        with pytest.raises(ValueError):
            fit_surrogate(X[:, :3], y, NAMES, config=FAST)


class TestDeterminismAndSerialization:
    def test_identical_fits_are_bit_identical(self):
        X, y = training_set(64)
        first = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        second = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        assert first.to_json_dict() == second.to_json_dict()

    def test_seed_changes_the_ensemble(self):
        X, y = training_set(64)
        first = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        second = fit_surrogate(X, y, NAMES, seed=8, config=FAST)
        assert first.to_json_dict() != second.to_json_dict()

    def test_save_load_round_trip(self, tmp_path):
        X, y = training_set(64)
        model = fit_surrogate(X, y, NAMES, seed=7, config=FAST)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = SurrogateModel.load(path)
        assert loaded.to_json_dict() == model.to_json_dict()
        probe = np.random.default_rng(1).uniform(0, 1, (8, len(NAMES)))
        np.testing.assert_array_equal(model.predict(probe)[0], loaded.predict(probe)[0])
        np.testing.assert_array_equal(model.predict(probe)[1], loaded.predict(probe)[1])
        # Saving twice produces byte-identical files (sorted-key JSON).
        other = tmp_path / "again.json"
        loaded.save(other)
        assert path.read_text() == other.read_text()

    def test_schema_version_is_pinned(self):
        assert MODEL_SCHEMA_VERSION == 1

    def test_out_of_range_feature_index_is_refused(self):
        # Index -1 would otherwise read the last column without complaint.
        X, y = training_set(64)
        doc = fit_surrogate(X, y, NAMES, seed=7, config=FAST).to_json_dict()
        root = doc["targets"][0]["members"][0]["trees"][0]
        assert "feature" in root
        for bad in (-1, len(NAMES)):
            root["feature"] = bad
            with pytest.raises(ValueError, match=f"feature index {bad} is outside"):
                SurrogateModel.from_json_dict(doc)


class TestUncertainty:
    def test_uncertainty_shrinks_with_training_rows(self):
        # The bootstrap ensemble should disagree less when fitted on 8x
        # the data from the same generating process.
        probe = np.random.default_rng(2).uniform(0.1, 0.9, (32, len(NAMES)))
        X_small, y_small = training_set(16, seed=3)
        X_big, y_big = training_set(128, seed=3)
        small = fit_surrogate(X_small, y_small, NAMES, seed=7, config=FAST)
        big = fit_surrogate(X_big, y_big, NAMES, seed=7, config=FAST)
        assert (
            uncertainty_mean(big, probe)["p99_us"]
            < uncertainty_mean(small, probe)["p99_us"]
        )


class TestMetricHelpers:
    def test_spearman_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_spearman_degenerate_is_zero(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0
        assert spearman([1], [2]) == 0.0

    def test_mae(self):
        assert mean_absolute_error([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5)
        assert mean_absolute_error([], []) == 0.0
