"""Surrogate differential suite: compiled ensembles vs a recursive oracle.

``repro.surrogate.model`` predicts from each target's ensemble compiled
into flat node arrays, walked level by level for all trees at once, and
fits by scoring every feature column of a node in one pass. This module
keeps the straightforward versions as a test-local oracle -- the
recursive per-tree walk and the per-column split search -- and holds
the library to them bit for bit:

* ``SurrogateModel.predict`` returns the oracle's ``means`` and
  ``stds`` under ``np.array_equal``;
* ``fit_surrogate(...).to_json_dict()`` equals the oracle fit's.

Models span the configuration grid (members, rounds, depth, leaf size,
threshold count) and members that stop early: a constant target leaves
residuals with nothing to learn (zero trees), a near-constant one stops
after a few. Probe rows sit exactly on split thresholds, one ULP to
either side, inside and far outside the training range, in batches of
1, 2, 3 and 64 rows.

Run just this suite with::

    PYTHONPATH=src python -m pytest tests/differential/test_surrogate_differential.py -q
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surrogate import model as model_module
from repro.surrogate.model import SurrogateConfig, SurrogateModel, fit_surrogate

# ----------------------------------------------------------------------
# The oracle: the recursive tree walk and the per-column split search.
# ----------------------------------------------------------------------


def oracle_best_split_for_feature(column, y, config):
    """Best (gain, threshold) of one feature via sorted prefix sums."""
    n = y.size
    order = np.argsort(column, kind="stable")
    xs, ys = column[order], y[order]
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0] + 1
    leaf = config.min_samples_leaf
    boundaries = boundaries[(boundaries >= leaf) & (boundaries <= n - leaf)]
    if boundaries.size == 0:
        return None
    if boundaries.size > config.max_thresholds:
        idx = np.linspace(0, boundaries.size - 1, config.max_thresholds)
        boundaries = boundaries[np.unique(idx.round().astype(int))]
    prefix = np.concatenate([[0.0], np.cumsum(ys)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(ys * ys)])
    total, total_sq = prefix[-1], prefix_sq[-1]
    left_n = boundaries.astype(float)
    left_sum = prefix[boundaries]
    left_sq = prefix_sq[boundaries]
    sse = (
        left_sq
        - left_sum**2 / left_n
        + (total_sq - left_sq)
        - (total - left_sum) ** 2 / (n - left_n)
    )
    base_sse = total_sq - total**2 / n
    gains = base_sse - sse
    pick = int(np.argmax(gains))
    if gains[pick] <= 1e-12:
        return None
    i = boundaries[pick]
    return float(gains[pick]), float((xs[i - 1] + xs[i]) / 2.0)


def oracle_fit_node(X, y, depth, config):
    """Greedy variance-reduction split, one feature column at a time."""
    node_value = float(y.mean()) if y.size else 0.0
    if depth >= config.max_depth or y.size < 2 * config.min_samples_leaf:
        return {"value": node_value}
    if float(((y - y.mean()) ** 2).sum()) <= 1e-12:
        return {"value": node_value}
    best = None
    for feature in range(X.shape[1]):
        found = oracle_best_split_for_feature(X[:, feature], y, config)
        if found is not None and (best is None or found[0] > best[0] + 1e-12):
            best = (found[0], feature, found[1])
    if best is None:
        return {"value": node_value}
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": oracle_fit_node(X[mask], y[mask], depth + 1, config),
        "right": oracle_fit_node(X[~mask], y[~mask], depth + 1, config),
    }


def oracle_predict_node(node, X):
    """Recursive boolean-mask prediction for one tree."""
    if "value" in node:
        return np.full(X.shape[0], node["value"])
    out = np.empty(X.shape[0])
    mask = X[:, node["feature"]] <= node["threshold"]
    out[mask] = oracle_predict_node(node["left"], X[mask])
    out[~mask] = oracle_predict_node(node["right"], X[~mask])
    return out


def oracle_fit_boosted(X, y, config):
    """One boosted member; each round's prediction re-walks the tree."""
    base = float(y.mean()) if y.size else 0.0
    prediction = np.full(y.shape, base)
    trees = []
    for _ in range(config.n_rounds):
        residual = y - prediction
        tree = oracle_fit_node(X, residual, 0, config)
        if "value" in tree and abs(tree["value"]) < 1e-12:
            break
        trees.append(tree)
        prediction = prediction + config.learning_rate * oracle_predict_node(tree, X)
    return {"base": base, "trees": trees}


def oracle_predict_boosted(member, X, learning_rate):
    """One member's prediction, one tree at a time."""
    out = np.full(X.shape[0], member["base"])
    for tree in member["trees"]:
        out = out + learning_rate * oracle_predict_node(tree, X)
    return out


def oracle_fit(X, y, names, seed, config) -> dict:
    """``fit_surrogate`` with the oracle's boosted-member fit."""
    with mock.patch.object(model_module, "_fit_boosted", oracle_fit_boosted):
        return fit_surrogate(X, y, names, seed=seed, config=config).to_json_dict()


def oracle_predict(model: SurrogateModel, X):
    """``SurrogateModel.predict`` with the recursive walk."""
    X = np.asarray(X, dtype=float)
    Z = model._standardize(X)
    Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])
    means = np.empty((X.shape[0], len(model.targets)))
    stds = np.empty_like(means)
    for column, spec in enumerate(model.targets):
        ridge = Z1 @ np.asarray(spec["ridge"])
        member_preds = np.stack(
            [
                ridge
                + oracle_predict_boosted(member, Z, model.config.learning_rate)
                for member in spec["members"]
            ]
        )
        mu = member_preds.mean(axis=0)
        sigma = member_preds.std(axis=0)
        raw_mu = model_module._inverse(spec["transform"], mu)
        raw_hi = model_module._inverse(spec["transform"], mu + sigma)
        means[:, column] = raw_mu
        stds[:, column] = np.maximum(0.0, raw_hi - raw_mu)
    return means, stds


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

configs = st.builds(
    SurrogateConfig,
    ridge_alpha=st.sampled_from([0.1, 1.0, 10.0]),
    n_members=st.integers(1, 6),
    n_rounds=st.integers(1, 40),
    max_depth=st.integers(1, 3),
    learning_rate=st.sampled_from([0.1, 0.2, 0.35, 1.0]),
    min_samples_leaf=st.integers(1, 8),
    max_thresholds=st.integers(2, 16),
)

#: How a feature column is drawn: ties and constants stress the split
#: search's boundary and stride handling.
COLUMN_KINDS = ("continuous", "discrete", "binary", "constant")
#: How a target is drawn: "constant" leaves the boosted members nothing
#: to fit (zero trees), "near-constant" only a few rounds' worth.
TARGET_REGIMES = ("signal", "signal", "constant", "near-constant")


@st.composite
def training_sets(draw, max_rows: int = 48):
    """An (X, y, names) training set with mixed column and target kinds."""
    n_rows = draw(st.integers(2, max_rows))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    regimes = draw(st.tuples(*[st.sampled_from(TARGET_REGIMES)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "continuous":
            columns.append(rng.normal(size=n_rows) * 10.0 ** rng.integers(-3, 4))
        elif kind == "discrete":
            columns.append(rng.integers(0, 5, size=n_rows).astype(float))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, size=n_rows).astype(float))
        else:
            columns.append(np.full(n_rows, 3.0))
    X = np.column_stack(columns)
    signal = 1.0 + np.abs(X).sum(axis=1)
    targets = []
    for regime, scale in zip(regimes, (400.0, 100.0, 0.5)):
        if regime == "constant":
            targets.append(np.full(n_rows, scale))
        elif regime == "near-constant":
            jitter = 10.0 ** rng.uniform(-7, -4)
            targets.append(scale * (1.0 + jitter * rng.normal(size=n_rows)))
        else:
            noise = rng.lognormal(0.0, 0.5, size=n_rows)
            targets.append(scale * signal * noise / (1.0 + signal.mean()))
    y = np.abs(np.column_stack(targets))
    names = tuple(f"f{i}" for i in range(len(kinds)))
    return X, y, names


def model_thresholds(model: SurrogateModel) -> dict[int, list[float]]:
    """Every split threshold of the model, by feature index."""
    found: dict[int, list[float]] = {}

    def walk(node):
        if "value" in node:
            return
        found.setdefault(node["feature"], []).append(node["threshold"])
        walk(node["left"])
        walk(node["right"])

    for spec in model.targets:
        for member in spec["members"]:
            for tree in member["trees"]:
                walk(tree)
    return found


@st.composite
def probe_rows(draw, model: SurrogateModel, Z: np.ndarray):
    """Standardized probe rows: on thresholds, one ULP off, far outside."""
    batch = draw(st.sampled_from([1, 2, 3, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thresholds = model_thresholds(model)
    span = float(np.abs(Z).max()) + 1.0
    rows = Z[rng.integers(0, Z.shape[0], size=batch)].copy()
    for r in range(batch):
        for f in range(Z.shape[1]):
            choice = rng.integers(0, 6)
            if choice <= 2 and f in thresholds:
                cut = thresholds[f][rng.integers(0, len(thresholds[f]))]
                direction = (-np.inf, np.inf)[rng.integers(0, 2)]
                rows[r, f] = cut if choice == 0 else np.nextafter(cut, direction)
            elif choice == 3:
                sign = (-1.0, 1.0)[rng.integers(0, 2)]
                rows[r, f] = sign * span * 10.0 ** rng.integers(0, 7)
    return rows


def with_identity_scaler(model: SurrogateModel) -> SurrogateModel:
    """The same trees behind ``Z = X``, so probe cells hit thresholds exactly."""
    width = len(model.feature_names)
    return dataclasses.replace(
        model, scaler_mean=[0.0] * width, scaler_std=[1.0] * width
    )


def assert_same_predictions(model: SurrogateModel, X) -> None:
    """Compiled ``predict`` equals the oracle bit for bit."""
    means, stds = model.predict(X)
    oracle_means, oracle_stds = oracle_predict(model, X)
    assert np.array_equal(means, oracle_means)
    assert np.array_equal(stds, oracle_stds)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestFitDifferential:
    @given(data=training_sets(), config=configs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fit_matches_oracle(self, data, config, seed):
        """The all-columns split search fits the oracle's exact trees."""
        X, y, names = data
        fitted = fit_surrogate(X, y, names, seed=seed, config=config)
        assert fitted.to_json_dict() == oracle_fit(X, y, names, seed, config)


class TestPredictDifferential:
    @given(
        data=training_sets(),
        config=configs,
        seed=st.integers(0, 2**16),
        probe_data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_predict_matches_oracle(self, data, config, seed, probe_data):
        """Compiled evaluation equals the recursive walk on every probe."""
        X, y, names = data
        model = fit_surrogate(X, y, names, seed=seed, config=config)
        Z = model._standardize(X)
        exact = with_identity_scaler(model)
        on_thresholds = probe_data.draw(probe_rows(exact, Z))
        assert_same_predictions(exact, on_thresholds)
        # The fitted scaler, probed with the same cells mapped back to
        # raw feature units (on thresholds up to rounding).
        std = np.asarray(model.scaler_std)
        raw = on_thresholds * std + np.asarray(model.scaler_mean)
        assert_same_predictions(model, raw)
        batch = probe_data.draw(st.sampled_from([1, 2, 3, 64]))
        assert_same_predictions(model, X[np.arange(batch) % X.shape[0]])

    @given(data=training_sets(max_rows=24), config=configs, probe_data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_reloaded_model_matches_oracle(self, data, config, probe_data):
        """A model rebuilt from its saved JSON compiles to the same answers."""
        X, y, names = data
        model = fit_surrogate(X, y, names, seed=3, config=config)
        reloaded = SurrogateModel.from_json_dict(
            json.loads(json.dumps(model.to_json_dict()))
        )
        probe = probe_data.draw(probe_rows(model, model._standardize(X)))
        assert_same_predictions(reloaded, probe)


# ----------------------------------------------------------------------
# Coverage of the early-stopping shapes the generators promise
# ----------------------------------------------------------------------


def _tree_counts(model: SurrogateModel, target: int) -> list[int]:
    """Trees per member of one target."""
    return [len(member["trees"]) for member in model.targets[target]["members"]]


class TestEarlyStoppingCoverage:
    def _fit(self, regime_scale: float | None):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        p99 = 200.0 + 50.0 * X[:, 0] ** 2
        bw = np.full(40, 100.0)
        if regime_scale is not None:
            bw = bw * (1.0 + regime_scale * rng.normal(size=40))
        util = 0.5 + 0.1 * np.abs(X[:, 1])
        y = np.column_stack([p99, bw, util])
        config = SurrogateConfig(n_members=3, n_rounds=30, min_samples_leaf=2)
        return X, y, config

    def test_constant_target_fits_zero_trees(self):
        X, y, config = self._fit(None)
        model = fit_surrogate(X, y, ("a", "b", "c"), seed=5, config=config)
        assert _tree_counts(model, 1) == [0, 0, 0]
        assert model.to_json_dict() == oracle_fit(X, y, ("a", "b", "c"), 5, config)
        assert_same_predictions(model, X[:3])

    def test_near_constant_target_stops_after_a_few_trees(self):
        X, y, config = self._fit(1e-6)
        model = fit_surrogate(X, y, ("a", "b", "c"), seed=5, config=config)
        counts = _tree_counts(model, 1)
        assert 0 < min(counts) and max(counts) < config.n_rounds
        assert model.to_json_dict() == oracle_fit(X, y, ("a", "b", "c"), 5, config)
        assert_same_predictions(model, X[:2])

    def test_leaf_only_ensembles_broadcast_over_rows(self):
        """No splits anywhere: one shared row of sums, still row-shaped output."""
        X, y, config = self._fit(None)
        doc = fit_surrogate(X, y, ("a", "b", "c"), seed=5, config=config).to_json_dict()
        for spec in doc["targets"]:
            for m, member in enumerate(spec["members"]):
                member["trees"] = [{"value": 0.25}, {"value": -0.5}][:m]
        model = SurrogateModel.from_json_dict(doc)
        means, stds = model.predict(X[:5])
        assert means.shape == stds.shape == (5, 3)
        assert_same_predictions(model, X[:5])
