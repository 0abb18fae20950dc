"""Property-based tests (hypothesis) for the surrogate layer.

The surrogate's contracts are structural, so they should hold for *any*
valid input, not just the golden scenarios: feature vectors are total
(every valid Scenario featurizes), fixed-width, NaN-free, and stable
under app-order permutation; fits are bit-identical for identical
corpora; ensemble-spread uncertainty is never negative. Scenarios are
generated the same way the tuner generates them -- by sampling each
knob space's parameters -- so the properties quantify over exactly the
population the prefilter scores.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.d6_autotune import default_slo
from repro.core.scenarios import BE_GROUP, PRIORITY_GROUP, robustness_specs
from repro.ssd.presets import samsung_980pro_like
from repro.surrogate.features import (
    TARGET_NAMES,
    feature_names,
    featurize,
    featurize_scenario,
    scenario_cgroups,
)
from repro.surrogate.model import SurrogateConfig, fit_surrogate
from repro.tune.evaluator import TuneEvaluator
from repro.tune.space import TUNABLE_KNOBS, build_space

from tests.differential.feature_oracle import oracle_rows

#: A fast fit for property examples: 2 members, 5 rounds.
FAST_CONFIG = SurrogateConfig(n_members=2, n_rounds=5)

_SSD = samsung_980pro_like()
_SPACES = {
    knob: build_space(
        knob,
        _SSD,
        device_scale=16.0,
        priority_group=PRIORITY_GROUP,
        be_group=BE_GROUP,
    )
    for knob in TUNABLE_KNOBS
}


def _evaluator(knob: str) -> TuneEvaluator:
    """A mini-scale evaluator whose ``scenario_for`` renders candidates."""
    return TuneEvaluator(
        space=_SPACES[knob],
        slo=default_slo(),
        apps=robustness_specs(be_queue_depth=32, n_be_apps=2),
        ssd=_SSD,
        device_scale=16.0,
        duration_s=0.3,
        warmup_s=0.1,
    )


def _values_from_units(space, units: list[float]) -> dict:
    """Map unit-interval draws onto the space's parameters (log-aware)."""
    values = {}
    for param, unit in zip(space.parameters(), units):
        if param.log:
            raw = param.lo * (param.hi / param.lo) ** unit
        else:
            raw = param.lo + (param.hi - param.lo) * unit
        values[param.name] = param.clamp(raw)
    return values


knob_names = st.sampled_from(TUNABLE_KNOBS)
unit_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=4,
    max_size=4,
)


class TestFeatureTotality:
    @given(knob=knob_names, units=unit_vectors)
    @settings(max_examples=60, deadline=None)
    def test_fixed_width_and_finite(self, knob, units):
        """Any sampled candidate featurizes to a full, finite row."""
        evaluator = _evaluator(knob)
        values = _values_from_units(evaluator.space, units)
        scenario = evaluator.scenario_for(values)
        names = feature_names()
        cgroups = scenario_cgroups(scenario)
        assert cgroups, "every tuning scenario has at least one cgroup"
        for cgroup in cgroups:
            row = featurize(scenario, cgroup)
            assert len(row) == len(names)
            assert all(math.isfinite(cell) for cell in row)

    @given(knob=knob_names, units=unit_vectors)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, knob, units):
        """Featurizing the same scenario twice is bit-identical."""
        evaluator = _evaluator(knob)
        values = _values_from_units(evaluator.space, units)
        scenario = evaluator.scenario_for(values)
        assert featurize_scenario(scenario) == featurize_scenario(scenario)

    @given(knob=knob_names, units=unit_vectors)
    @settings(max_examples=60, deadline=None)
    def test_one_pass_rows_match_the_seed_per_cgroup_rows(self, knob, units):
        """Featurizing a scenario in one pass gives the seed's per-cgroup rows."""
        evaluator = _evaluator(knob)
        scenario = evaluator.scenario_for(
            _values_from_units(evaluator.space, units)
        )
        expected = oracle_rows(scenario)
        assert featurize_scenario(scenario) == expected
        for cgroup, row in expected.items():
            assert featurize(scenario, cgroup) == row

    @given(knob=knob_names, units=unit_vectors, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_permutation_stable(self, knob, units, seed):
        """Reordering ``scenario.apps`` never changes any feature row."""
        evaluator = _evaluator(knob)
        values = _values_from_units(evaluator.space, units)
        scenario = evaluator.scenario_for(values)
        order = np.random.default_rng(seed).permutation(len(scenario.apps))
        shuffled = dataclasses.replace(
            scenario, apps=[scenario.apps[i] for i in order]
        )
        assert featurize_scenario(scenario) == featurize_scenario(shuffled)


def _synthetic_training_set(seed: int, rows: int):
    """A smooth, noisy (X, y) set over a small synthetic feature space."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(rows, 5))
    p99 = 50.0 + 400.0 * X[:, 0] + 30.0 * X[:, 1] * X[:, 2]
    bw = 20.0 + 100.0 * (1.0 - X[:, 0]) + 10.0 * X[:, 3]
    util = bw / 200.0
    noise = rng.normal(0.0, 0.05, size=(rows, 3))
    y = np.stack([p99, bw, util], axis=1) * (1.0 + noise)
    return X, np.abs(y)


SYNTH_NAMES = tuple(f"f{i}" for i in range(5))


class TestFitProperties:
    @given(seed=st.integers(0, 2**16), rows=st.integers(8, 40))
    @settings(max_examples=20, deadline=None)
    def test_refit_bit_identical(self, seed, rows):
        """The same training set always fits to the same saved model."""
        X, y = _synthetic_training_set(seed, rows)
        first = fit_surrogate(X, y, SYNTH_NAMES, seed=7, config=FAST_CONFIG)
        second = fit_surrogate(X, y, SYNTH_NAMES, seed=7, config=FAST_CONFIG)
        assert first.to_json_dict() == second.to_json_dict()

    @given(seed=st.integers(0, 2**16), rows=st.integers(8, 40))
    @settings(max_examples=20, deadline=None)
    def test_uncertainty_nonnegative_and_predictions_finite(self, seed, rows):
        """Ensemble spread is never negative; predictions never NaN."""
        X, y = _synthetic_training_set(seed, rows)
        model = fit_surrogate(X, y, SYNTH_NAMES, seed=7, config=FAST_CONFIG)
        probe = np.random.default_rng(seed + 1).uniform(-0.5, 1.5, (16, 5))
        means, stds = model.predict(probe)
        assert means.shape == (16, len(TARGET_NAMES))
        assert stds.shape == (16, len(TARGET_NAMES))
        assert np.isfinite(means).all() and np.isfinite(stds).all()
        assert (stds >= 0.0).all()
