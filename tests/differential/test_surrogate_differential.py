"""Surrogate differential suite: the library vs test-local oracles.

``repro.surrogate.model`` predicts from each target's ensemble compiled
into flat node arrays, walked level by level for all trees at once, and
fits by scoring every varying feature column of a node in one pass.
``SurrogatePrefilter.rank`` scores its pool in chunks, one predict call
per chunk, from rows featurized one scenario at a time. This module
keeps the straightforward versions as test-local oracles -- the
recursive per-tree walk, the per-column split search over every
column, and the one-candidate ranking loop over the seed's per-cgroup
featurization (``feature_oracle.py``) -- and holds the library to them
bit for bit:

* ``SurrogateModel.predict`` returns the oracle's ``means`` and
  ``stds`` under ``np.array_equal``, and a call split into row blocks
  returns what one call per block returns;
* ``fit_surrogate(...).to_json_dict()`` equals the oracle fit's, also
  when every column is constant or a column is constant in some
  members' bootstraps only;
* ``rank`` returns the one-candidate loop's ``RankedCandidate`` list,
  floats compared exactly, for pools on both sides of a chunk edge
  over the io.max, io.latency and io.cost spaces.

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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.d6_autotune import default_slo
from repro.core.scenarios import BE_GROUP, PRIORITY_GROUP, robustness_specs
from repro.ssd.presets import samsung_980pro_like
from repro.surrogate import model as model_module
from repro.surrogate.features import (
    TARGET_P99_CAP_US,
    feature_names,
    scenario_cgroups,
)
from repro.surrogate.filter import RANK_CHUNK, RankedCandidate, SurrogatePrefilter
from repro.surrogate.model import SurrogateConfig, SurrogateModel, fit_surrogate
from repro.tune.evaluator import TuneEvaluator
from repro.tune.search import surrogate_pool
from repro.tune.slo import score_deliveries
from repro.tune.space import build_space

from tests.differential.feature_oracle import oracle_featurize

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


def oracle_rank(prefilter: SurrogatePrefilter, evaluator, candidates):
    """The seed's ``rank``: per-cgroup featurize, one predict per candidate."""
    model = prefilter.model
    primary = prefilter._primary_p99_group()
    ranked = []
    for values in candidates:
        normalized = evaluator.space.normalize(values)
        label = evaluator.space.label(normalized)
        scenario = evaluator.scenario_for(normalized, label)
        cgroups = scenario_cgroups(scenario)
        means, stds = model.predict(
            np.asarray([oracle_featurize(scenario, cgroup) for cgroup in cgroups])
        )
        predictions, deliveries, aggregate = {}, {}, 0.0
        for i, cgroup in enumerate(cgroups):
            by_target = dict(zip(model.target_names, means[i].tolist()))
            by_target["p99_std_us"] = float(stds[i][0])
            predictions[cgroup] = by_target
            p99 = max(0.0, by_target["p99_us"])
            bandwidth = max(0.0, by_target["bandwidth_mib_s"])
            deliveries[cgroup] = (p99 if p99 < TARGET_P99_CAP_US else None, bandwidth)
            aggregate += bandwidth
        score = score_deliveries(
            prefilter.slo, deliveries, aggregate_bandwidth_mib_s=aggregate,
            ssd=prefilter.ssd,
        )
        primary_prediction = predictions.get(
            primary, {"p99_us": TARGET_P99_CAP_US, "p99_std_us": 0.0}
        )
        ranked.append(
            RankedCandidate(
                values=normalized,
                label=label,
                predicted_total=score.total,
                predicted_p99_us=primary_prediction["p99_us"],
                uncertainty_p99_us=primary_prediction["p99_std_us"],
            )
        )
    return sorted(ranked, key=lambda c: (c.predicted_total, c.label))


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


# ----------------------------------------------------------------------
# Fits over varying columns, pooled predictions, chunked ranking
# ----------------------------------------------------------------------


class TestVaryingColumnsFit:
    """A member's split search skips constant columns; the oracle scans all."""

    CONFIG = SurrogateConfig(n_members=3, n_rounds=12, min_samples_leaf=1)
    NAMES = ("a", "b", "c", "d")

    def _targets(self, X):
        rng = np.random.default_rng(4)
        signal = 1.0 + np.abs(X).sum(axis=1)
        noise = rng.lognormal(0.0, 0.3, size=(X.shape[0], 3))
        return np.column_stack([400.0 * signal, 100.0 / signal, 0.5 * signal]) * noise

    def test_all_constant_columns(self):
        X = np.column_stack([np.full(24, value) for value in (3.0, -1.0, 0.0, 7.5)])
        y = self._targets(X)
        model = fit_surrogate(X, y, self.NAMES, seed=5, config=self.CONFIG)
        assert model_thresholds(model) == {}
        assert model.to_json_dict() == oracle_fit(X, y, self.NAMES, 5, self.CONFIG)
        assert_same_predictions(model, X[:3])

    def test_column_constant_in_some_bootstraps_only(self):
        """Column 1 varies only through row 5, which some members never draw."""
        rng = np.random.default_rng(9)
        n, outlier = 24, 5
        spike = np.zeros(n)
        spike[outlier] = 1.0
        X = np.column_stack(
            [rng.normal(size=n), spike, np.full(n, 2.0), rng.integers(0, 3, n)]
        )
        y = self._targets(X)
        y[outlier] *= 50.0  # worth a split wherever the row is drawn
        drawn = [
            outlier
            in np.random.default_rng([0, column, member]).integers(0, n, n)
            for column in range(3)
            for member in range(self.CONFIG.n_members)
        ]
        assert any(drawn) and not all(drawn)
        model = fit_surrogate(X, y, self.NAMES, seed=0, config=self.CONFIG)
        thresholds = model_thresholds(model)
        assert 1 in thresholds and 2 not in thresholds
        assert model.to_json_dict() == oracle_fit(X, y, self.NAMES, 0, self.CONFIG)
        assert_same_predictions(model, X)


class TestBlockedPredict:
    @given(
        data=training_sets(),
        members=st.sampled_from([1, 2, 6, 8, 9]),
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_one_call_per_block(self, data, members, seed, sizes):
        """A blocked call gives each block the bits of a call of its own.

        Eight or more members take the lone-row path: numpy sums a
        one-row call's members pairwise.
        """
        X, y, names = data
        config = SurrogateConfig(n_members=members, n_rounds=10, min_samples_leaf=2)
        model = fit_surrogate(X, y, names, seed=seed, config=config)
        rows = X[np.arange(sum(sizes)) % X.shape[0]]
        rows = rows * np.random.default_rng(seed).uniform(0.5, 1.5, rows.shape)
        means, stds = model.predict(rows, blocks=sizes)
        start = 0
        for size in sizes:
            block_means, block_stds = model.predict(rows[start : start + size])
            assert np.array_equal(means[start : start + size], block_means)
            assert np.array_equal(stds[start : start + size], block_stds)
            start += size

    def test_blocks_must_cover_the_rows(self):
        X = np.random.default_rng(0).normal(size=(8, 2))
        y = np.abs(X[:, :1]) + np.ones((8, 3))
        model = fit_surrogate(X, y, ("a", "b"), config=SurrogateConfig(n_rounds=2))
        with pytest.raises(ValueError, match="blocks cover 5 rows, X has 8"):
            model.predict(X, blocks=[2, 3])


#: The spaces the pooled ranking is held to the one-candidate loop on.
RANKED_KNOBS = ("io.max", "io.latency", "io.cost")
#: Pool sizes: empty, one, either side of a chunk edge, several chunks.
POOL_SIZES = (0, 1, RANK_CHUNK - 1, RANK_CHUNK, RANK_CHUNK + 1, 50)


@pytest.fixture(scope="module")
def prefilters():
    """``prefilters(knob)``: an evaluator and a prefilter over a fitted model.

    The model is fit on rows featurized from the space's own rendered
    scenarios, with synthetic targets, so no scenario is simulated.
    """
    built = {}

    def get(knob: str):
        if knob not in built:
            ssd = samsung_980pro_like()
            space = build_space(
                knob, ssd, device_scale=16.0,
                priority_group=PRIORITY_GROUP, be_group=BE_GROUP,
            )
            evaluator = TuneEvaluator(
                space=space,
                slo=default_slo(),
                apps=robustness_specs(be_queue_depth=16, n_be_apps=1),
                ssd=ssd,
                device_scale=16.0,
                duration_s=0.05,
                warmup_s=0.01,
            )
            X = [
                oracle_featurize(scenario, cgroup)
                for scenario in map(evaluator.scenario_for, surrogate_pool(space, 40, seed=1))
                for cgroup in scenario_cgroups(scenario)
            ]
            X = np.asarray(X)
            rng = np.random.default_rng(3)
            signal = 1.0 + np.abs(X @ rng.normal(size=X.shape[1]))
            y = np.column_stack([300.0 * signal, 2000.0 / signal, signal / 10.0])
            y = y * rng.lognormal(0.0, 0.2, size=y.shape)
            model = fit_surrogate(
                X, y, feature_names(), seed=7, config=SurrogateConfig(n_rounds=20)
            )
            prefilter = SurrogatePrefilter(model=model, slo=default_slo(), ssd=ssd)
            built[knob] = (evaluator, prefilter, surrogate_pool(space, max(POOL_SIZES)))
        return built[knob]

    return get


@pytest.mark.parametrize("size", POOL_SIZES)
@pytest.mark.parametrize("knob", RANKED_KNOBS)
def test_pooled_rank_matches_the_one_candidate_loop(knob, size, prefilters):
    """Chunked, pooled scoring ranks exactly like one call per candidate."""
    evaluator, prefilter, pool = prefilters(knob)
    scored = prefilter.scored
    ranked = prefilter.rank(evaluator, pool[:size])
    assert ranked == oracle_rank(prefilter, evaluator, pool[:size])
    assert len(ranked) == size and prefilter.scored == scored + size
