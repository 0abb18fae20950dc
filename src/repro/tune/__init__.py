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

import importlib

#: The package's re-exports, by the submodule that defines each. They
#: load on first access, so importing one submodule (D3 and D8 need
#: only :mod:`repro.tune.slo`) loads no other. The ``search`` function
#: is not among them: ``repro.tune.search`` is the submodule, so import
#: it as ``from repro.tune.search import search``.
_EXPORTS = {
    "AdvisorReport": "advisor",
    "KnobAdvice": "advisor",
    "advise": "advisor",
    "decision_trace_records": "advisor",
    "Evaluation": "evaluator",
    "TuneEvaluator": "evaluator",
    "STRATEGIES": "search",
    "SearchOutcome": "search",
    "surrogate_pool": "search",
    "surrogate_search": "search",
    "GroupSlo": "slo",
    "SloScore": "slo",
    "SloSpec": "slo",
    "SloTerm": "slo",
    "parse_slo": "slo",
    "score_cgroup_stats": "slo",
    "score_summary": "slo",
    "TUNABLE_KNOBS": "space",
    "KnobSpace": "space",
    "Parameter": "space",
    "build_space": "space",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Load a re-export's submodule on first access (PEP 562)."""
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The loaded names plus every re-export."""
    return sorted(set(globals()) | set(_EXPORTS))
