"""The configuration advisor: rank knobs against an SLO, Table-I style.

:func:`advise` runs one search per candidate knob (each against its own
:class:`~repro.tune.evaluator.TuneEvaluator`), scores every knob's
*untuned default* as the "before" column, and assembles an
:class:`AdvisorReport`: knobs ranked by tuned SLO-violation score, the
winning configuration rendered as concrete sysfs-flavoured settings, and
a machine-readable decision trace (every evaluation the searches
performed, in obs-style self-describing JSONL) for post-hoc audit.

This is the automated counterpart of the paper's hand-derived Table I:
instead of "which knob satisfies which desiderata", the report answers
"which knob -- configured how -- satisfies *your* SLO, and what did it
cost the others".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.metrics.agreement import mean_absolute_error, spearman
from repro.tune.evaluator import Evaluation
from repro.tune.search import SearchOutcome, search
from repro.tune.slo import SloSpec


@dataclass
class KnobAdvice:
    """One knob's row in the advisor report: before, after, and how."""

    #: Knob name (Table I row).
    knob: str
    #: Strategy that searched the knob's space.
    strategy: str
    #: SLO score of the untuned default configuration.
    baseline: Evaluation
    #: Best full-fidelity configuration the search found.
    best: Evaluation
    #: Sysfs-flavoured rendering of the best configuration.
    settings: str
    #: Every evaluation the search performed, in order.
    evaluations: list[Evaluation] = field(default_factory=list)
    #: Surrogate trust report (``SurrogatePrefilter.to_json_dict``)
    #: when this knob was searched surrogate-prefiltered; None for pure
    #: simulator searches.
    surrogate: dict | None = None

    @property
    def improved(self) -> bool:
        """True when tuning strictly reduced the SLO-violation score."""
        return self.best.score.total < self.baseline.score.total

    def to_json_dict(self) -> dict:
        """Golden-friendly document for one knob row."""
        doc = {
            "knob": self.knob,
            "strategy": self.strategy,
            "baseline_score": self.baseline.score.to_json_dict(),
            "tuned_score": self.best.score.to_json_dict(),
            "best_label": self.best.label,
            "best_values": dict(self.best.values),
            "settings": self.settings,
            "improved": self.improved,
            "evaluations": len(self.evaluations),
        }
        if self.surrogate is not None:
            doc["surrogate"] = dict(self.surrogate)
        return doc

    def surrogate_stats_line(self) -> str | None:
        """The per-knob ``surrogate: ...`` trust line (None when pure)."""
        if self.surrogate is None:
            return None
        return (
            f"surrogate[{self.knob}]: scored={self.surrogate['scored']} "
            f"verified={self.surrogate['verified']} "
            f"mae_p99={self.surrogate['mae_p99_us']:.1f}us "
            f"spearman={self.surrogate['spearman_p99']:.2f}"
        )


@dataclass
class AdvisorReport:
    """The full advisor result: ranked knob rows plus provenance."""

    #: The SLO the knobs were tuned against, in ``parse_slo`` syntax.
    slo: str
    #: Per-search evaluation budget that produced the report.
    budget: int
    rows: list[KnobAdvice] = field(default_factory=list)
    #: Operator-facing notices (e.g. the surrogate's too-small-corpus
    #: fallback); empty for a plain run.
    notices: list[str] = field(default_factory=list)

    def rank(self) -> list[KnobAdvice]:
        """Rows best-first: lowest tuned score, knob-name tie-break."""
        return sorted(self.rows, key=lambda row: (row.best.score.total, row.knob))

    def recommended(self) -> KnobAdvice:
        """The winning row (the advisor's recommendation)."""
        if not self.rows:
            raise ValueError("advisor report has no rows")
        return self.rank()[0]

    def row(self, knob: str) -> KnobAdvice:
        """The row for one knob name."""
        for candidate in self.rows:
            if candidate.knob == knob:
                return candidate
        raise KeyError(f"no advice for knob {knob!r}")

    def surrogate_summary(self) -> dict | None:
        """Pooled surrogate trust metrics across every knob's search.

        Per-knob verified sets are a handful of near-tie candidates, so
        their rank correlations are noise; pooling every verified
        ``(predicted, measured)`` p99 pair across knobs gives the
        spread that makes MAE and spearman meaningful. None when no
        knob was surrogate-prefiltered.
        """
        records = [
            record
            for row in self.rows
            if row.surrogate is not None
            for record in row.surrogate["records"]
        ]
        if not records:
            return None
        predicted = [record["predicted_p99_us"] for record in records]
        measured = [record["measured_p99_us"] for record in records]
        return {
            "scored": sum(
                row.surrogate["scored"]
                for row in self.rows
                if row.surrogate is not None
            ),
            "verified": len(records),
            "mae_p99_us": mean_absolute_error(predicted, measured),
            "spearman_p99": spearman(predicted, measured),
        }

    def surrogate_stats_line(self) -> str | None:
        """The pooled ``surrogate: ...`` trust line (None for pure runs)."""
        summary = self.surrogate_summary()
        if summary is None:
            return None
        return (
            f"surrogate: scored={summary['scored']} "
            f"verified={summary['verified']} "
            f"mae_p99={summary['mae_p99_us']:.1f}us "
            f"spearman={summary['spearman_p99']:.2f}"
        )

    def render(self) -> str:
        """The Table-I-style text report (the ``isol-bench tune`` output)."""
        headers = ("rank", "knob", "strategy", "untuned", "tuned", "meets SLO", "best configuration")
        rows = []
        for position, row in enumerate(self.rank(), start=1):
            rows.append(
                (
                    position,
                    row.knob,
                    row.strategy,
                    f"{row.baseline.score.total:.3f}",
                    f"{row.best.score.total:.3f}",
                    "yes" if row.best.score.meets_slo else "no",
                    row.best.label,
                )
            )
        table = render_table(headers, rows, title=f"SLO: {self.slo}")
        winner = self.recommended()
        extra_lines = [
            line
            for line in (row.surrogate_stats_line() for row in self.rank())
            if line is not None
        ]
        pooled = self.surrogate_stats_line()
        if pooled is not None:
            extra_lines.append(pooled)
        extra_lines.extend(f"notice: {notice}" for notice in self.notices)
        extras = ("\n" + "\n".join(extra_lines)) if extra_lines else ""
        return (
            f"{table}\n\n"
            f"recommended: {winner.knob} ({winner.best.label})\n"
            f"settings:    {winner.settings}"
            f"{extras}"
        )

    def to_json_dict(self) -> dict:
        """Golden-friendly document (insertion order is rank order)."""
        doc = {
            "slo": self.slo,
            "budget": self.budget,
            "ranking": [row.knob for row in self.rank()],
            "recommended": self.recommended().knob,
            "rows": {row.knob: row.to_json_dict() for row in self.rank()},
        }
        summary = self.surrogate_summary()
        if summary is not None:
            doc["surrogate"] = summary
        if self.notices:
            doc["notices"] = list(self.notices)
        return doc


def advise(
    searches: list[tuple],
    slo: SloSpec,
    budget: int,
    strategy: str = "auto",
    seed: int = 42,
    prefilters: dict | None = None,
    notices: list[str] | None = None,
) -> AdvisorReport:
    """Search every (space, evaluator) pair and rank the knobs.

    ``searches`` pairs each :class:`~repro.tune.space.KnobSpace` with
    the :class:`~repro.tune.evaluator.TuneEvaluator` that runs its
    candidates (one evaluator per space, so per-space evaluation logs
    stay separable). The untuned-default baseline evaluation is *not*
    counted against ``budget`` -- the budget buys search.

    ``prefilters`` maps knob names to
    :class:`~repro.surrogate.filter.SurrogatePrefilter` instances;
    knobs with one are searched surrogate-prefiltered and their rows
    carry the prefilter's trust report. ``notices`` seeds the report's
    operator-facing notice list (e.g. a surrogate fallback).
    """
    report = AdvisorReport(
        slo=slo.describe(), budget=budget, notices=list(notices or [])
    )
    prefilters = prefilters or {}
    for space, evaluator in searches:
        baseline = evaluator.evaluate_knob(space.default_knob(), "default")
        prefilter = prefilters.get(space.name)
        outcome: SearchOutcome = search(
            space, evaluator, budget, strategy=strategy, seed=seed,
            prefilter=prefilter,
        )
        report.rows.append(
            KnobAdvice(
                knob=space.name,
                strategy=outcome.strategy,
                baseline=baseline,
                best=outcome.best,
                settings=space.render_settings(outcome.best.values),
                evaluations=list(outcome.evaluations),
                surrogate=prefilter.to_json_dict() if prefilter else None,
            )
        )
    return report


def decision_trace_records(report: AdvisorReport) -> list[dict]:
    """The report as obs-style self-describing records (``type`` field).

    One ``advice`` record per knob followed by one ``evaluation`` record
    per candidate the search tried, in evaluation order -- enough to
    replay why the advisor picked what it picked.
    :func:`~repro.obs.export.write_records_jsonl` writes them as JSONL.
    """
    records: list[dict] = [
        {"type": "slo", "spec": report.slo, "budget": report.budget}
    ]
    for notice in report.notices:
        records.append({"type": "notice", "message": notice})
    summary = report.surrogate_summary()
    if summary is not None:
        records.append({"type": "surrogate_summary", **summary})
    for row in report.rank():
        records.append({"type": "advice", **row.to_json_dict()})
        if row.surrogate is not None:
            records.append(
                {"type": "surrogate", "knob": row.knob, **row.surrogate}
            )
        for evaluation in row.evaluations:
            records.append(
                {
                    "type": "evaluation",
                    "knob": row.knob,
                    "label": evaluation.label,
                    "values": dict(evaluation.values),
                    "fidelity": evaluation.fidelity,
                    "score": evaluation.score.to_json_dict(),
                }
            )
    return records
