"""Seeded ridge + gradient-boosted ensemble over numpy (no sklearn).

One :class:`SurrogateModel` predicts the three
:data:`~repro.surrogate.features.TARGET_NAMES` (per-group p99,
bandwidth, utilization) from one feature row. The estimator is:

* a closed-form **ridge** regression on standardized features (the
  global trend), fit on every training row;
* an **ensemble** of :data:`~SurrogateConfig.n_members`
  gradient-boosted shallow regression trees, each member fit on a
  seeded bootstrap of the ridge *residuals* -- the trees learn the
  non-linear structure (throttle cliffs, starvation regimes) ridge
  cannot express;
* **quantile-style uncertainty** from the ensemble spread: the
  member-prediction standard deviation, mapped back through the
  target transform so it is always non-negative and in target units.

Heavy-tailed targets (p99, bandwidth) are fit in ``log1p`` space and
inverted on prediction, so a starved group's 1e9-microsecond sentinel
cannot dominate the loss.

Everything is deterministic: fitting draws only from
``numpy.random.default_rng`` seeded by ``(seed, target, member)``,
trees pick splits by exact argmax with index tie-breaks, and
:meth:`SurrogateModel.to_json_dict` round-trips losslessly (Python's
``repr``-based float serialization), so identical corpora produce
bit-identical saved models -- property-pinned in
``tests/property/test_surrogate_properties.py``.

Both hot loops run as a few numpy calls over whole arrays:

* **Fit.** Each member lays out and scores splits only over the
  columns that vary among its bootstrap rows (a constant column has no
  candidate position; a split records its column's index in the full
  schema). A split search scores every such column of a node at once
  (sorted prefix sums, the SSE of every candidate position, the first
  maximum per column), then scans the per-column winners in feature
  order. Each member's rows are sorted once per column, and the root's
  candidate positions, the same in every round, are found once; a
  deeper node narrows the sort to its own rows instead of sorting
  again. Each round's training prediction comes from the row partition
  the fit already built.
* **Predict.** Constructing a :class:`SurrogateModel` compiles each
  target's trees into flat node arrays (:class:`_FlatEnsemble`). The
  arrays are derived state, never serialized and rebuilt on load;
  building them refuses a tree feature index outside the model's
  columns. Prediction walks all trees of a target level by level,
  then adds each member's ``learning_rate * leaf`` terms onto its base
  in tree order.

Both give the same float sequence as a per-column split search over
every column and a recursive per-tree walk, which
``tests/differential/`` keeps as an oracle.

The prefilter scores its pool in chunks of 16 candidates, one
:meth:`SurrogateModel.predict` call per chunk, with each candidate's
rows (2-3) as one of the call's ``blocks``: the ridge product's BLAS
mat-vec rounds differently with the number of rows, so it runs once
per block, and every candidate keeps the bits of a call of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.metrics.agreement import mean_absolute_error, spearman
from repro.surrogate.features import FEATURE_SCHEMA_VERSION, TARGET_NAMES
from repro.surrogate.features import feature_names as current_feature_names

#: Schema version of the saved-model JSON document.
MODEL_SCHEMA_VERSION = 1

#: Per-target transform applied before fitting (inverted on predict).
TARGET_TRANSFORMS = {"p99_us": "log1p", "bandwidth_mib_s": "log1p", "util": "identity"}


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters of the ridge + boosted-ensemble estimator."""

    #: L2 penalty of the ridge stage (on standardized features).
    ridge_alpha: float = 1.0
    #: Bootstrap ensemble size (the uncertainty resolution; averaging
    #: more members also smooths spurious per-tree spread).
    n_members: int = 6
    #: Boosting rounds (trees) per member.
    n_rounds: int = 60
    #: Tree depth; 2 keeps members fast and hard to overfit.
    max_depth: int = 2
    #: Shrinkage applied to every tree's contribution. Deliberately
    #: conservative: cache corpora are small, and an under-regularized
    #: fit invents latency spread where the simulator measures none,
    #: scrambling the prefilter's ranking exactly where it matters.
    learning_rate: float = 0.1
    #: Minimum rows on each side of a split.
    min_samples_leaf: int = 8
    #: Max candidate thresholds evaluated per feature per split.
    max_thresholds: int = 16

    def __post_init__(self) -> None:
        if self.n_members < 1 or self.n_rounds < 1 or self.max_depth < 1:
            raise ValueError("n_members, n_rounds and max_depth must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")


def _transform(name: str, values: np.ndarray) -> np.ndarray:
    """Apply one named target transform."""
    if name == "log1p":
        return np.log1p(np.maximum(0.0, values))
    return np.asarray(values, dtype=float)


def _inverse(name: str, values: np.ndarray) -> np.ndarray:
    """Invert one named target transform."""
    if name == "log1p":
        return np.expm1(np.minimum(values, 60.0))
    return values


@functools.lru_cache(maxsize=256)
def _kept_ranks(count: int, max_thresholds: int) -> np.ndarray:
    """Mask of the ranks an evenly strided subset of ``count`` keeps.

    Read-only: the cache hands the same array to every caller.
    """
    keep = np.zeros(count, dtype=bool)
    idx = np.linspace(0, count - 1, max_thresholds)
    keep[np.unique(idx.round().astype(int))] = True
    keep.flags.writeable = False
    return keep


def _split_layout(
    X: np.ndarray, order: np.ndarray, config: SurrogateConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The target-independent half of a node's split search.

    ``order`` holds the node's rows sorted stably by each column (one
    column of row indices into ``X`` per feature). Returns it with the
    sorted feature values and the mask of candidate split positions:
    row r of the (n - 1, features) mask is position i = r + 1, which
    splits into left = [0, i), right = [i, n). A candidate sits between
    two distinct values and leaves ``min_samples_leaf`` rows on each
    side; a column with more than ``max_thresholds`` of them keeps an
    evenly strided subset (deterministic).
    """
    n = order.shape[0]
    xs = X[order, np.arange(X.shape[1])]
    position = np.arange(1, n)
    leaf = config.min_samples_leaf
    candidate = (xs[1:] > xs[:-1]) & (
        (position >= leaf) & (position <= n - leaf)
    )[:, None]
    counts = candidate.sum(axis=0)
    for count in sorted(set(counts[counts > config.max_thresholds].tolist())):
        columns = np.nonzero(counts == count)[0]
        rank = np.cumsum(candidate[:, columns], axis=0) - 1
        candidate[:, columns] &= _kept_ranks(count, config.max_thresholds)[rank]
    return order, xs, candidate


def _best_split(
    y: np.ndarray, layout: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[int, float] | None:
    """Best (feature, threshold) of a node, or None when none qualifies.

    Every column of the :func:`_split_layout` is scored in one pass
    over sorted prefix sums: prefix sums of ``y`` and ``y**2``, the SSE
    of every candidate position, and the first maximum per column
    (lowest threshold wins ties). A split must gain more than 1e-12.
    """
    order, xs, candidate = layout
    n = order.shape[0]
    ys = y[order]
    prefix = np.cumsum(ys, axis=0)
    prefix_sq = np.cumsum(ys * ys, axis=0)
    total, total_sq = prefix[-1], prefix_sq[-1]
    left_n = np.arange(1.0, n)[:, None]
    left_sum, left_sq = prefix[:-1], prefix_sq[:-1]
    sse = (
        left_sq
        - left_sum**2 / left_n
        + (total_sq - left_sq)
        - (total - left_sum) ** 2 / (n - left_n)
    )
    # Scalar ``**`` is libm pow, which differs in the last bit from the
    # array path's x*x for about 0.1% of inputs: keep it per column.
    base_sse = np.array([t_sq - t**2 / n for t, t_sq in zip(total, total_sq)])
    gains = np.where(candidate, base_sse - sse, -np.inf)
    pick = gains.argmax(axis=0)  # first max: lowest threshold wins ties
    top = gains[pick, np.arange(gains.shape[1])].tolist()

    best = None  # (gain, feature)
    for feature, gain in enumerate(top):
        # Strictly-greater keeps the lowest feature index on gain ties
        # -- deterministic.
        if not gain <= 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, feature)
    if best is None:
        return None
    feature = best[1]
    i = int(pick[feature]) + 1
    return feature, float((xs[i - 1, feature] + xs[i, feature]) / 2.0)


def _fit_node(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    layout: tuple[np.ndarray, np.ndarray, np.ndarray],
    depth: int,
    config: SurrogateConfig,
    fitted: np.ndarray,
    columns: np.ndarray,
) -> dict:
    """Greedy variance-reduction split; exact argmax, index tie-breaks.

    The node holds ``rows`` (ascending indices into ``X`` and ``y``).
    ``layout`` is the :func:`_split_layout` of this node or of an
    ancestor; an ancestor's sort is narrowed to ``rows``, which keeps
    their sorted order, so no node sorts again. Each leaf writes its
    value into ``fitted`` at its rows: the tree's training prediction,
    without a second walk. ``X`` holds only some feature columns;
    ``columns`` maps each to its index in the full schema, which is
    what a split records.
    """
    node_y = y[rows]
    mean = node_y.mean()
    node_value = float(mean)
    best = None
    if not (
        depth >= config.max_depth
        or node_y.size < 2 * config.min_samples_leaf
        or float(((node_y - mean) ** 2).sum()) <= 1e-12
    ):
        order = layout[0]
        if order.shape[0] != rows.size:
            inside = np.zeros(y.size, dtype=bool)
            inside[rows] = True
            order = order.T[inside[order.T]].reshape(order.shape[1], -1).T
            layout = _split_layout(X, order, config)
        best = _best_split(y, layout)
    if best is None:
        fitted[rows] = node_value
        return {"value": node_value}
    feature, threshold = best
    mask = X[rows, feature] <= threshold
    below = (layout, depth + 1, config, fitted, columns)
    return {
        "feature": int(columns[feature]),
        "threshold": threshold,
        "left": _fit_node(X, y, rows[mask], *below),
        "right": _fit_node(X, y, rows[~mask], *below),
    }


def _fit_boosted(
    X: np.ndarray, y: np.ndarray, config: SurrogateConfig
) -> dict:
    """One gradient-boosted member (squared loss -> residual fitting).

    Splits are searched only over the columns that vary among the
    member's rows: a constant column has no candidate position, so
    leaving it out changes no tree.
    """
    base = float(y.mean()) if y.size else 0.0
    prediction = np.full(y.shape, base)
    rows = np.arange(y.size)
    columns = np.flatnonzero((X != X[:1]).any(axis=0))
    X = X[:, columns]
    # The root holds every row in every round: sort and lay it out once.
    root = _split_layout(X, np.argsort(X, axis=0, kind="stable"), config)
    trees: list[dict] = []
    for _ in range(config.n_rounds):
        residual = y - prediction
        fitted = np.empty(y.shape)
        tree = _fit_node(X, residual, rows, root, 0, config, fitted, columns)
        if "value" in tree and abs(tree["value"]) < 1e-12:
            break  # residuals exhausted; further rounds are no-ops
        trees.append(tree)
        prediction = prediction + config.learning_rate * fitted
    return {"base": base, "trees": trees}


class _FlatEnsemble:
    """One target's boosted members compiled into flat node arrays.

    Node ``k`` tests ``Z[:, feature[k]] <= threshold[k]`` and moves to
    ``left[k]`` or ``right[k]``; a leaf points to itself on both sides,
    so ``depth`` gather-and-compare steps bring every tree of every
    member to its leaf at once. A leaf's ``step`` is what it adds to its
    member's running sum: ``learning_rate * value`` for a tree leaf, and
    the member's ``base`` for the extra leaf that opens each member's
    row of ``slots``. Node 0 pads the rows to a common length; its step
    is never read.
    """

    def __init__(
        self,
        target: str,
        members: list[dict],
        n_features: int,
        learning_rate: float,
    ):
        nodes: list[list] = []  # [feature, threshold, left, right, step]
        self.depth = 0

        def leaf(step: float) -> int:
            nodes.append([0, 0.0, len(nodes), len(nodes), step])
            return len(nodes) - 1

        def add(node: dict, depth: int) -> int:
            if "value" in node:
                self.depth = max(self.depth, depth)
                return leaf(learning_rate * float(node["value"]))
            column = node["feature"]
            if not isinstance(column, (int, np.integer)) or not (
                0 <= column < n_features
            ):
                raise ValueError(
                    f"target {target!r}: tree feature index {column!r} is "
                    f"outside [0, {n_features}) for a {n_features}-feature model"
                )
            index = leaf(0.0)
            nodes[index][:4] = [
                int(column),
                float(node["threshold"]),
                add(node["left"], depth + 1),
                add(node["right"], depth + 1),
            ]
            return index

        leaf(0.0)  # node 0: padding
        width = 1 + max((len(member["trees"]) for member in members), default=0)
        self.slots = np.zeros((len(members), width), dtype=np.intp)
        for m, member in enumerate(members):
            self.slots[m, 0] = leaf(float(member["base"]))
            for t, tree in enumerate(member["trees"], start=1):
                self.slots[m, t] = add(tree, 0)
        self.counts = np.array([len(member["trees"]) for member in members])
        feature, threshold, left, right, step = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.step = np.array(step)

    def member_sums(self, Z: np.ndarray) -> np.ndarray:
        """Each member's ``base + lr * tree + ...`` per row: (rows, members).

        ``np.add.accumulate`` adds the steps in tree order, and each
        member is read at its own tree count: the same float sequence as
        adding one tree at a time. With no splits at all, every row
        gets the same sums and the result has one row.
        """
        rows = np.arange(Z.shape[0])[:, None]
        node = self.slots.reshape(1, -1)
        for _ in range(self.depth):
            node = np.where(
                Z[rows, self.feature[node]] <= self.threshold[node],
                self.left[node],
                self.right[node],
            )
        steps = self.step[node].reshape(node.shape[0], *self.slots.shape)
        sums = np.add.accumulate(steps, axis=2)
        return sums[:, np.arange(len(self.counts)), self.counts]


@dataclass
class SurrogateModel:
    """A fitted per-group performance predictor with save/load."""

    #: Feature column names the model was fit on (alignment contract).
    feature_names: tuple[str, ...]
    #: Feature-encoding version the rows must match.
    feature_schema_version: int
    #: Target names, in prediction-column order.
    target_names: tuple[str, ...]
    #: The hyperparameters used to fit.
    config: SurrogateConfig
    #: Fit seed (bit-identity provenance).
    seed: int
    #: Number of training rows.
    n_rows: int
    #: Standardization: per-column means and (non-zero) stds.
    scaler_mean: list[float]
    scaler_std: list[float]
    #: Per-target estimator: transform name, ridge weights (+ intercept
    #: as the last element), and the boosted ensemble members.
    targets: list[dict]
    #: Per-target compiled ensembles (:class:`_FlatEnsemble`), built
    #: from ``targets`` on construction (build a new model after editing
    #: ``targets``) and never serialized.
    _flat: list = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._flat = [
            _FlatEnsemble(
                spec.get("target", column),
                spec["members"],
                len(self.feature_names),
                self.config.learning_rate,
            )
            for column, spec in enumerate(self.targets)
        ]

    def check_feature_schema(self) -> None:
        """Raise ValueError unless the model fits today's feature rows.

        A saved model predicts correctly only on rows encoded the way
        its training rows were: the current
        :data:`~repro.surrogate.features.FEATURE_SCHEMA_VERSION` and
        :func:`~repro.surrogate.features.feature_names`, in order.
        """
        if self.feature_schema_version != FEATURE_SCHEMA_VERSION:
            raise ValueError(
                f"model feature schema v{self.feature_schema_version} does not "
                f"match the current v{FEATURE_SCHEMA_VERSION}; refit the model"
            )
        current = current_feature_names()
        if tuple(self.feature_names) != current:
            mismatch = next(
                (
                    f"column {i} is {ours!r}, current is {theirs!r}"
                    for i, (ours, theirs) in enumerate(
                        zip(self.feature_names, current)
                    )
                    if ours != theirs
                ),
                f"{len(self.feature_names)} columns, current has {len(current)}",
            )
            raise ValueError(
                f"model feature names do not match the current schema "
                f"({mismatch}); refit the model"
            )

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        """Apply the training-time feature standardization."""
        mean = np.asarray(self.scaler_mean)
        std = np.asarray(self.scaler_std)
        return (X - mean) / std

    def predict(self, X, blocks=None) -> tuple[np.ndarray, np.ndarray]:
        """Predict ``(means, stds)`` in raw target units, shape (n, 3).

        The mean is the ensemble average mapped through the inverse
        target transform; the std is the quantile-style upper spread
        ``inv(mu + sigma) - inv(mu)`` -- non-negative by monotonicity of
        the transforms.

        ``blocks`` (row counts that sum to n) splits the rows into
        consecutive runs, each predicted bit for bit as a call of its
        own would predict it. Every step works row by row except two:
        the ridge term is a BLAS product whose rounding depends on its
        number of rows, so it runs once per run, and numpy sums the
        members of a lone row pairwise once there are 8 or more, so a
        one-row run's mean and spread are taken on its own.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature width mismatch: rows have {X.shape[1]} columns, "
                f"model expects {len(self.feature_names)}"
            )
        spans = [(0, X.shape[0])]
        if blocks is not None:
            bounds = list(itertools.accumulate(blocks, initial=0))
            if len(bounds) < 2 or bounds[-1] != X.shape[0]:
                raise ValueError(f"blocks cover {bounds[-1]} rows, X has {X.shape[0]}")
            spans = list(itertools.pairwise(bounds))
        Z = self._standardize(X)
        Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])
        means = np.empty((X.shape[0], len(self.targets)))
        stds = np.empty_like(means)
        for column, (spec, flat) in enumerate(zip(self.targets, self._flat)):
            weights = np.asarray(spec["ridge"])
            ridge = np.concatenate([Z1[start:stop] @ weights for start, stop in spans])
            sums = flat.member_sums(Z)
            member_preds = np.stack(
                [ridge + sums[:, member] for member in range(sums.shape[1])]
            )
            mu = member_preds.mean(axis=0)
            sigma = member_preds.std(axis=0)
            if len(spans) > 1 and len(member_preds) >= 8:
                for start, stop in spans:
                    if stop - start == 1:
                        alone = member_preds[:, start:stop]
                        mu[start] = alone.mean(axis=0)[0]
                        sigma[start] = alone.std(axis=0)[0]
            raw_mu = _inverse(spec["transform"], mu)
            raw_hi = _inverse(spec["transform"], mu + sigma)
            means[:, column] = raw_mu
            stds[:, column] = np.maximum(0.0, raw_hi - raw_mu)
        return means, stds

    def predict_one(self, row) -> tuple[dict, dict]:
        """Predict one row; returns ``(mean_by_target, std_by_target)``."""
        means, stds = self.predict(np.asarray(row).reshape(1, -1))
        return (
            dict(zip(self.target_names, means[0].tolist())),
            dict(zip(self.target_names, stds[0].tolist())),
        )

    def to_json_dict(self) -> dict:
        """Lossless plain-dict form (floats round-trip via ``repr``)."""
        return {
            "model_schema_version": MODEL_SCHEMA_VERSION,
            "feature_schema_version": self.feature_schema_version,
            "feature_names": list(self.feature_names),
            "target_names": list(self.target_names),
            "config": asdict(self.config),
            "seed": self.seed,
            "n_rows": self.n_rows,
            "scaler_mean": self.scaler_mean,
            "scaler_std": self.scaler_std,
            "targets": self.targets,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SurrogateModel":
        """Rebuild from a :meth:`to_json_dict` document."""
        if doc.get("model_schema_version") != MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported model schema {doc.get('model_schema_version')!r} "
                f"(expected {MODEL_SCHEMA_VERSION})"
            )
        return cls(
            feature_names=tuple(doc["feature_names"]),
            feature_schema_version=doc["feature_schema_version"],
            target_names=tuple(doc["target_names"]),
            config=SurrogateConfig(**doc["config"]),
            seed=doc["seed"],
            n_rows=doc["n_rows"],
            scaler_mean=doc["scaler_mean"],
            scaler_std=doc["scaler_std"],
            targets=doc["targets"],
        )

    def save(self, path) -> None:
        """Write the model as sorted-key JSON (bit-stable on disk)."""
        Path(path).write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"
        )

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        """Read a model written by :meth:`save`."""
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def fit_surrogate(
    X,
    y,
    feature_names: tuple[str, ...],
    seed: int = 42,
    config: SurrogateConfig | None = None,
) -> SurrogateModel:
    """Fit the ridge + boosted ensemble on an (X, y) training set.

    ``X`` is (rows, features), ``y`` is (rows, 3) in
    :data:`~repro.surrogate.features.TARGET_NAMES` order, both in raw
    units. Deterministic for fixed inputs and seed.
    """
    config = config or SurrogateConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 2 or y.shape[1] != len(TARGET_NAMES):
        raise ValueError("need X of shape (n, f) and y of shape (n, 3)")
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching X/y with at least 2 rows")
    if X.shape[1] != len(feature_names):
        raise ValueError("X width must match feature_names")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    Z = (X - mean) / std
    Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])

    targets: list[dict] = []
    for column, target in enumerate(TARGET_NAMES):
        transform = TARGET_TRANSFORMS[target]
        yt = _transform(transform, y[:, column])
        # Closed-form ridge on [Z | 1]; the intercept is unpenalized.
        penalty = config.ridge_alpha * np.eye(Z1.shape[1])
        penalty[-1, -1] = 0.0
        weights = np.linalg.solve(Z1.T @ Z1 + penalty, Z1.T @ yt)
        residual = yt - Z1 @ weights
        members = []
        for member in range(config.n_members):
            rng = np.random.default_rng([seed, column, member])
            idx = np.sort(rng.integers(0, Z.shape[0], Z.shape[0]))
            members.append(_fit_boosted(Z[idx], residual[idx], config))
        targets.append(
            {
                "target": target,
                "transform": transform,
                "ridge": weights.tolist(),
                "members": members,
            }
        )

    return SurrogateModel(
        feature_names=tuple(feature_names),
        feature_schema_version=FEATURE_SCHEMA_VERSION,
        target_names=TARGET_NAMES,
        config=config,
        seed=seed,
        n_rows=int(X.shape[0]),
        scaler_mean=mean.tolist(),
        scaler_std=std.tolist(),
        targets=targets,
    )


def evaluate_model(model: SurrogateModel, X, y) -> dict:
    """Per-target MAE + Spearman of the model on an (X, y) set."""
    means, _ = model.predict(X)
    y = np.asarray(y, dtype=float)
    report = {}
    for column, target in enumerate(model.target_names):
        report[target] = {
            "mae": mean_absolute_error(means[:, column], y[:, column]),
            "spearman": spearman(means[:, column], y[:, column]),
        }
    return report


def uncertainty_mean(model: SurrogateModel, X) -> dict:
    """Mean ensemble-spread uncertainty per target over a row set."""
    _, stds = model.predict(X)
    return {
        target: float(stds[:, column].mean())
        for column, target in enumerate(model.target_names)
    }


def _self_check() -> None:
    """Quick deterministic smoke used by ``python -m`` debugging."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(64, 4))
    y = np.stack(
        [
            np.abs(100 + 40 * X[:, 0] + 10 * X[:, 1] ** 2),
            np.abs(50 + 5 * X[:, 2]),
            np.abs(0.5 + 0.1 * X[:, 3]),
        ],
        axis=1,
    )
    model = fit_surrogate(X, y, ("a", "b", "c", "d"), seed=1)
    print(json.dumps(evaluate_model(model, X, y), indent=2))


if __name__ == "__main__":  # pragma: no cover
    _self_check()
