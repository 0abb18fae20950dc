"""The surrogate prefilter: score thousands, simulate only the top-k.

:class:`SurrogatePrefilter` sits between a search strategy and the real
:class:`~repro.tune.evaluator.TuneEvaluator`: the strategy hands it a
wide candidate pool, the prefilter renders each candidate's scenario,
featurizes every cgroup, predicts per-group p99 / bandwidth / util with
the :class:`~repro.surrogate.model.SurrogateModel`, scores the
*predicted* full-speed delivery against the SLO with
:func:`~repro.tune.slo.score_deliveries` (the formulas the simulator
path is scored with), and returns the candidates ranked by predicted
violation. Only the top-k ever reach the
``SweepExecutor``-backed evaluator.

Trust is measured, not assumed: every candidate the simulator verifies
is logged as a ``(predicted, measured)`` pair, and the filter reports
``scored= verified= mae_p99= spearman=`` in tune stats lines and the
decision-trace JSONL (:meth:`SurrogatePrefilter.stats_line` /
:meth:`~SurrogatePrefilter.to_json_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ssd.model import SsdModel
from repro.metrics.agreement import mean_absolute_error, spearman
from repro.surrogate.features import (
    TARGET_P99_CAP_US,
    featurize_rows,
    scenario_cgroups,
    target_p99_us,
)
from repro.surrogate.model import SurrogateModel
from repro.tune.evaluator import Evaluation
from repro.tune.slo import SloSpec, score_deliveries

#: Default width multiplier: candidates scored per simulator run the
#: verification budget buys (the "search 100x wider" dial).
DEFAULT_POOL_FACTOR = 64

#: Candidates :meth:`SurrogatePrefilter.rank` scores per
#: :meth:`~repro.surrogate.model.SurrogateModel.predict` call: enough
#: rows to spread numpy's per-call cost, few enough that a chunk's
#: arrays stay small (a whole 384-candidate pool in one call raised the
#: ``d9-warm`` benchmark's peak memory by 6 MiB, for no speed).
RANK_CHUNK = 16


@dataclass(frozen=True)
class RankedCandidate:
    """One pool candidate with its predicted SLO delivery."""

    #: Normalized assignment (the evaluator's input).
    values: dict
    #: The space's deterministic label for the assignment.
    label: str
    #: Predicted SLO-violation total (the ranking key).
    predicted_total: float
    #: Predicted p99 of the SLO's primary latency group, full-speed us.
    predicted_p99_us: float
    #: Ensemble-spread uncertainty on that p99, full-speed us.
    uncertainty_p99_us: float


@dataclass(frozen=True)
class VerifiedRecord:
    """One surrogate-vs-simulator comparison on a verified candidate."""

    label: str
    predicted_total: float
    measured_total: float
    predicted_p99_us: float
    measured_p99_us: float

    def to_json_dict(self) -> dict:
        """Plain-dict form for traces and reports."""
        return {
            "label": self.label,
            "predicted_total": self.predicted_total,
            "measured_total": self.measured_total,
            "predicted_p99_us": self.predicted_p99_us,
            "measured_p99_us": self.measured_p99_us,
        }


@dataclass
class SurrogatePrefilter:
    """Scores candidate pools with a surrogate; logs verification error."""

    #: The fitted per-group performance model.
    model: SurrogateModel
    #: The SLO predicted deliveries are scored against.
    slo: SloSpec
    #: The unscaled device model (utilization reference derivation).
    ssd: SsdModel
    #: Candidates scored per simulator run the budget buys.
    pool_factor: int = DEFAULT_POOL_FACTOR
    #: Candidates the pool ranks ever scored (across rank calls).
    scored: int = 0
    #: Verified ``(predicted, measured)`` pairs, in verification order.
    verified: list[VerifiedRecord] = field(default_factory=list)

    def _primary_p99_group(self) -> str:
        """The cgroup whose p99 the error metrics track."""
        for group in self.slo.groups:
            if group.p99_latency_us is not None:
                return group.cgroup
        return self.slo.groups[0].cgroup

    def predict_scenario(self, scenario) -> tuple[float, dict]:
        """Predicted SLO total + per-cgroup means for one scenario.

        Returns ``(predicted_total, predictions)`` where predictions
        maps each cgroup to its ``{p99_us, bandwidth_mib_s, util}``
        means plus ``p99_std_us`` spread. A p99 predicted at
        :data:`~repro.surrogate.features.TARGET_P99_CAP_US` or above is
        scored as starved.
        """
        return self._predict_scenarios([scenario])[0]

    def _predict_scenarios(self, scenarios) -> list[tuple[float, dict]]:
        """:meth:`predict_scenario` for several scenarios, one predict call.

        Each scenario's rows are one block of the call, so every
        scenario gets the same bits a call of its own would give.
        """
        import numpy as np

        groups = [scenario_cgroups(scenario) for scenario in scenarios]
        rows = [
            row
            for scenario, cgroups in zip(scenarios, groups)
            for row in featurize_rows(scenario, cgroups)
        ]
        means, stds = self.model.predict(
            np.asarray(rows), blocks=[len(cgroups) for cgroups in groups]
        )
        means, p99_stds = means.tolist(), stds[:, 0].tolist()
        results = []
        row = 0
        for cgroups in groups:
            predictions: dict[str, dict] = {}
            deliveries: dict[str, tuple[float | None, float]] = {}
            aggregate = 0.0
            for cgroup in cgroups:
                by_target = dict(zip(self.model.target_names, means[row]))
                by_target["p99_std_us"] = p99_stds[row]
                predictions[cgroup] = by_target
                p99 = max(0.0, by_target["p99_us"])
                bandwidth = max(0.0, by_target["bandwidth_mib_s"])
                deliveries[cgroup] = (
                    p99 if p99 < TARGET_P99_CAP_US else None,
                    bandwidth,
                )
                aggregate += bandwidth
                row += 1
            score = score_deliveries(
                self.slo, deliveries, aggregate_bandwidth_mib_s=aggregate, ssd=self.ssd
            )
            results.append((score.total, predictions))
        return results

    def rank(self, evaluator, candidates: list[dict]) -> list[RankedCandidate]:
        """Rank a candidate pool by predicted SLO violation, best first.

        ``evaluator`` renders each assignment into the exact scenario
        the simulator would run (same workload, seed, fidelity), so the
        surrogate scores precisely what verification would measure.
        The pool is scored :data:`RANK_CHUNK` candidates per predict
        call, with the bits of one call per candidate.
        Deterministic: ties break on the assignment label.
        """
        primary = self._primary_p99_group()
        starved = {"p99_us": TARGET_P99_CAP_US, "p99_std_us": 0.0}
        ranked: list[RankedCandidate] = []
        for start in range(0, len(candidates), RANK_CHUNK):
            chunk, scenarios = [], []
            for values in candidates[start : start + RANK_CHUNK]:
                normalized = evaluator.space.normalize(values)
                label = evaluator.space.label(normalized)
                chunk.append((normalized, label))
                scenarios.append(evaluator.scenario_for(normalized, label))
            for (normalized, label), (total, predictions) in zip(
                chunk, self._predict_scenarios(scenarios)
            ):
                primary_prediction = predictions.get(primary, starved)
                ranked.append(
                    RankedCandidate(
                        values=normalized,
                        label=label,
                        predicted_total=total,
                        predicted_p99_us=primary_prediction["p99_us"],
                        uncertainty_p99_us=primary_prediction["p99_std_us"],
                    )
                )
        self.scored += len(ranked)
        return sorted(ranked, key=lambda c: (c.predicted_total, c.label))

    def observe(self, candidate: RankedCandidate, evaluation: Evaluation) -> None:
        """Log one verified candidate's surrogate-vs-simulator error."""
        measured_p99 = None
        primary = self._primary_p99_group()
        for term in evaluation.score.terms:
            if term.kind == "p99" and term.cgroup == primary:
                measured_p99 = term.measured
                break
        self.verified.append(
            VerifiedRecord(
                label=candidate.label,
                predicted_total=candidate.predicted_total,
                measured_total=evaluation.score.total,
                predicted_p99_us=candidate.predicted_p99_us,
                measured_p99_us=target_p99_us(measured_p99),
            )
        )

    # -- error reporting -----------------------------------------------
    def mae_p99_us(self) -> float:
        """MAE between predicted and measured p99 on the verified set."""
        return mean_absolute_error(
            [record.predicted_p99_us for record in self.verified],
            [record.measured_p99_us for record in self.verified],
        )

    def spearman_p99(self) -> float:
        """Rank correlation of predicted vs measured p99 (verified set)."""
        return spearman(
            [record.predicted_p99_us for record in self.verified],
            [record.measured_p99_us for record in self.verified],
        )

    def stats_line(self) -> str:
        """The one-line trust report for tune progress/stats output."""
        return (
            f"surrogate: scored={self.scored} verified={len(self.verified)} "
            f"mae_p99={self.mae_p99_us():.1f}us spearman={self.spearman_p99():.2f}"
        )

    def to_json_dict(self) -> dict:
        """Machine-readable trust report (decision-trace payload)."""
        return {
            "scored": self.scored,
            "verified": len(self.verified),
            "mae_p99_us": self.mae_p99_us(),
            "spearman_p99": self.spearman_p99(),
            "model_rows": self.model.n_rows,
            "records": [record.to_json_dict() for record in self.verified],
        }


def fit_from_corpus(corpus, seed: int = 42, config=None) -> SurrogateModel:
    """Fit a :class:`SurrogateModel` from a corpus (thin convenience)."""
    from repro.surrogate.model import fit_surrogate

    X, y = corpus.matrices()
    return fit_surrogate(X, y, corpus.feature_names, seed=seed, config=config)
