"""repro.tune: SLO-driven knob autotuning and configuration advice.

The subsystem that closes the paper's loop: Table I tells you *which*
knob helps *which* desideratum; ``repro.tune`` takes a concrete tenant
SLO (:mod:`repro.tune.slo`), searches each knob's device-derived
parameter space (:mod:`repro.tune.space`) with deterministic strategies
(:mod:`repro.tune.search`) evaluated through the parallel cached sweep
executor (:mod:`repro.tune.evaluator`), and recommends knob + settings
(:mod:`repro.tune.advisor`). The ``isol-bench tune`` subcommand and
:mod:`repro.core.d6_autotune` are the front doors.
"""

from repro.tune.advisor import (
    AdvisorReport,
    KnobAdvice,
    advise,
    decision_trace_records,
)
from repro.tune.evaluator import Evaluation, TuneEvaluator
from repro.tune.search import (
    STRATEGIES,
    SearchOutcome,
    search,
    surrogate_pool,
    surrogate_search,
)
from repro.tune.slo import (
    GroupSlo,
    SloScore,
    SloSpec,
    SloTerm,
    parse_slo,
    score_cgroup_stats,
    score_summary,
)
from repro.tune.space import TUNABLE_KNOBS, KnobSpace, Parameter, build_space

__all__ = [
    "AdvisorReport",
    "KnobAdvice",
    "advise",
    "decision_trace_records",
    "Evaluation",
    "TuneEvaluator",
    "STRATEGIES",
    "SearchOutcome",
    "search",
    "surrogate_pool",
    "surrogate_search",
    "GroupSlo",
    "SloScore",
    "SloSpec",
    "SloTerm",
    "parse_slo",
    "score_cgroup_stats",
    "score_summary",
    "TUNABLE_KNOBS",
    "KnobSpace",
    "Parameter",
    "build_space",
]
