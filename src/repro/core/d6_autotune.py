"""D6: autotuning — which knob, configured how, for a given SLO?

The other core modules *measure* the five cgroup I/O-control knobs; D6
*configures* them. Against the D5 workload shape (one latency-critical
app plus saturating best-effort readers) and a tenant SLO -- a p99
ceiling and bandwidth floor for the LC tenant plus a device-utilization
floor -- each knob's parameter space is searched with its default
strategy and the knobs are ranked by the tuned SLO-violation score.

The expected outcome mirrors the paper: io.max, io.latency and io.cost
tune into meeting (or nearly meeting) the SLO; MQ-Deadline's class pairs
help latency at a utilization cost; BFQ cannot be tuned out of its
QD=1 latency collapse (O6) no matter the weight.

Everything fans out through the sweep executor, so ``isol-bench tune
--workers N`` parallelizes each search batch and reruns hit the result
cache; ``--faults CLASS`` reruns the whole search under a fault plan for
robustness-aware recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scenarios import BE_GROUP, PRIORITY_GROUP, robustness_specs
from repro.exec.executor import SweepExecutor
from repro.faults import get_fault_plan
from repro.ssd.model import SsdModel
from repro.ssd.presets import samsung_980pro_like
from repro.tune.advisor import AdvisorReport, advise
from repro.tune.evaluator import TuneEvaluator
from repro.tune.slo import GroupSlo, SloSpec
from repro.tune.space import TUNABLE_KNOBS, build_space


@dataclass
class AutotuneSettings:
    """Effort level, workload shape and search scope for D6."""

    ssd: SsdModel = None  # type: ignore[assignment]
    #: Knobs to search; defaults to all five Table-I control knobs.
    knobs: tuple[str, ...] = TUNABLE_KNOBS
    #: Per-knob evaluation budget (the baseline run is on the house).
    budget: int = 12
    #: Search strategy ("auto" defers to each space's default).
    strategy: str = "auto"
    #: Fault class for robustness-aware tuning; None tunes healthy.
    fault_class: str | None = None
    duration_s: float = 2.0
    warmup_s: float = 0.5
    device_scale: float = 8.0
    be_queue_depth: int = 64
    n_be_apps: int = 4
    cores: int = 10
    seed: int = 42
    #: Surrogate prefiltering: ``off`` (pure simulator search), ``auto``
    #: (fit on the result-cache corpus, falling back with a notice when
    #: it is too small), or a path to a saved model JSON.
    surrogate: str = "off"
    #: Candidates forwarded to the simulator per surrogate search;
    #: None means the search ``budget`` (budget-for-budget comparable).
    verify_top_k: int | None = None
    #: Fewest corpus rows ``auto`` will fit on.
    surrogate_min_rows: int = 32
    #: Pool width multiplier (candidates scored per verified run).
    surrogate_pool_factor: int = 64

    def __post_init__(self) -> None:
        if self.ssd is None:
            self.ssd = samsung_980pro_like()
        if not self.knobs:
            raise ValueError("need at least one knob to tune")
        unknown = set(self.knobs) - set(TUNABLE_KNOBS)
        if unknown:
            raise ValueError(f"unknown knobs {sorted(unknown)}; options: {TUNABLE_KNOBS}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.verify_top_k is not None and self.verify_top_k < 1:
            raise ValueError("verify_top_k must be >= 1 when set")
        if self.surrogate_pool_factor < 1:
            raise ValueError("surrogate_pool_factor must be >= 1")


def quick_settings() -> AutotuneSettings:
    """The ``tune --quick`` effort level."""
    return AutotuneSettings(
        budget=8,
        duration_s=0.8,
        warmup_s=0.2,
        device_scale=8.0,
        be_queue_depth=64,
    )


def mini_settings() -> AutotuneSettings:
    """Tier-1 / CI-smoke effort: seconds of wall time, all five knobs."""
    return AutotuneSettings(
        budget=6,
        duration_s=0.3,
        warmup_s=0.1,
        device_scale=16.0,
        be_queue_depth=32,
        n_be_apps=2,
    )


def default_slo() -> SloSpec:
    """The demo SLO the CLI uses when ``--slo`` is not given.

    Calibrated to the D5 mini workload on the flash preset: the LC
    tenant's untuned p99 (~123 us full-speed) must come under 100 us
    while keeping most of its fair-share bandwidth, and the device must
    stay at least 25% busy -- tight enough that every knob's default
    violates it, loose enough that the throttlers can tune into it.
    """
    return SloSpec(
        groups=(
            GroupSlo(PRIORITY_GROUP, p99_latency_us=100.0, min_bandwidth_mib_s=40.0),
        ),
        utilization_floor=0.25,
    )


def resolve_surrogate_model(
    settings: AutotuneSettings,
    executor: SweepExecutor | None = None,
):
    """Resolve ``settings.surrogate`` into ``(model, notices)``.

    ``off`` yields no model; a path loads a saved model JSON (a
    ValueError if it was fit on another feature schema); ``auto``
    fits on the result-cache corpus of whichever cache the executor
    uses (the default cache directory otherwise). A missing or
    too-small corpus is not fatal: ``auto`` falls back to the pure
    simulator search and says so in an operator-facing notice.
    """
    if settings.surrogate == "off":
        return None, []
    from repro.surrogate import fit_from_corpus, load_corpus
    from repro.surrogate.model import SurrogateModel

    if settings.surrogate != "auto":
        model = SurrogateModel.load(settings.surrogate)
        model.check_feature_schema()
        return model, []
    cache = executor.cache if executor is not None else None
    corpus = load_corpus(cache.root if cache is not None else None)
    min_rows = max(1, settings.surrogate_min_rows)
    if corpus.n_rows < min_rows:
        return None, [
            "surrogate=auto: corpus has "
            f"{corpus.n_rows} rows (< {min_rows} required); "
            "falling back to pure simulator search"
        ]
    return fit_from_corpus(corpus, seed=settings.seed), []


def evaluate_autotune(
    settings: AutotuneSettings | None = None,
    slo: SloSpec | None = None,
    executor: SweepExecutor | None = None,
) -> AdvisorReport:
    """Search every requested knob against the SLO and rank them."""
    settings = settings or AutotuneSettings()
    slo = slo or default_slo()
    apps = robustness_specs(
        be_queue_depth=settings.be_queue_depth, n_be_apps=settings.n_be_apps
    )
    faults = (
        get_fault_plan(settings.fault_class) if settings.fault_class else None
    )
    searches = []
    for knob_name in settings.knobs:
        space = build_space(
            knob_name,
            settings.ssd,
            device_scale=settings.device_scale,
            priority_group=PRIORITY_GROUP,
            be_group=BE_GROUP,
        )
        evaluator = TuneEvaluator(
            space=space,
            slo=slo,
            apps=apps,
            ssd=settings.ssd,
            device_scale=settings.device_scale,
            duration_s=settings.duration_s,
            warmup_s=settings.warmup_s,
            seed=settings.seed,
            cores=settings.cores,
            faults=faults,
            executor=executor,
        )
        searches.append((space, evaluator))
    model, notices = resolve_surrogate_model(settings, executor)
    prefilters = None
    budget = settings.budget
    if model is not None:
        from repro.surrogate import SurrogatePrefilter

        prefilters = {
            space.name: SurrogatePrefilter(
                model=model,
                slo=slo,
                ssd=settings.ssd,
                pool_factor=settings.surrogate_pool_factor,
            )
            for space, _ in searches
        }
        if settings.verify_top_k is not None:
            budget = settings.verify_top_k
    return advise(
        searches,
        slo,
        budget=budget,
        strategy=settings.strategy,
        seed=settings.seed,
        prefilters=prefilters,
        notices=notices,
    )
