"""Pairwise tenant interference measurement and prediction.

The placement problem needs an answer to "what happens to tenant A's
p99 and bandwidth when it shares a device with tenant B?" before any
tenant is placed. This module measures exactly that, the way the paper
measures isolation (§IV): run each tenant **solo** on a pristine device,
then run every unordered tenant **pair** co-located on one device, and
record the degradation.

The result is an :class:`InterferenceMatrix`:

* ``solo[a]`` — tenant ``a``'s solo p99 (full-speed us) and bandwidth
  (full-speed MiB/s); the baseline entitlement.
* ``effect(a, b)`` — a :class:`PairEffect`: the multiplicative p99
  inflation (>= 1) and bandwidth retention (<= 1) tenant ``a`` suffers
  when co-located with ``b``. Effects are directional: a QD=1 LC tenant
  barely dents a batch tenant, while the batch tenant inflates the LC
  tenant's p99 by orders of magnitude (the paper's Fig. 1 asymmetry).

For devices hosting more than two tenants the matrix **predicts** by
composing pairwise effects multiplicatively
(:meth:`InterferenceMatrix.predicted`) — the standard independence
approximation interference-aware placers make; ``docs/fleet.md``
discusses when it under-estimates.

Every scenario the builder fans out is deterministic and
content-addressed, so a warm :class:`~repro.exec.cache.ResultCache`
makes matrix construction free and two builds (any worker count) are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import NoneKnob, Scenario
from repro.exec.executor import SweepExecutor, resolve_executor
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.tune.slo import SloSpec, full_speed_delivery, score_deliveries

#: p99 measured for a starved tenant (no completions): effectively
#: infinite, kept finite so JSON round-trips losslessly.
STARVED_P99_US = float(10**9)


@dataclass(frozen=True)
class TenantMeasure:
    """One tenant's measured (or predicted) delivery, full-speed units."""

    #: Pooled p99 latency in microseconds at full device speed; for
    #: tenants with no completions this is :data:`STARVED_P99_US`.
    p99_us: float
    #: Bandwidth in MiB/s at full device speed.
    bandwidth_mib_s: float

    def to_json_dict(self) -> dict:
        """Plain-dict form."""
        return {"p99_us": self.p99_us, "bandwidth_mib_s": self.bandwidth_mib_s}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TenantMeasure":
        """Rebuild from a :meth:`to_json_dict` document."""
        return cls(**doc)


@dataclass(frozen=True)
class PairEffect:
    """What co-location with ``partner`` does to ``tenant`` (directional)."""

    #: The tenant whose delivery degrades.
    tenant: str
    #: The co-located tenant causing the degradation.
    partner: str
    #: Multiplicative p99 inflation, clamped to >= 1.0.
    p99_ratio: float
    #: Multiplicative bandwidth retention, clamped to (0, 1].
    bandwidth_retention: float
    #: True when the effect came from a surrogate predictor rather than
    #: a measured pair scenario.
    predicted: bool = False

    def to_json_dict(self) -> dict:
        """Plain-dict form (``predicted`` only serialized when True)."""
        doc = {
            "tenant": self.tenant,
            "partner": self.partner,
            "p99_ratio": self.p99_ratio,
            "bandwidth_retention": self.bandwidth_retention,
        }
        if self.predicted:
            doc["predicted"] = True
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PairEffect":
        """Rebuild from a :meth:`to_json_dict` document."""
        return cls(**doc)


@dataclass(frozen=True)
class MatrixSettings:
    """Timeline and scale of the matrix measurement scenarios."""

    #: Per-scenario simulated duration in seconds.
    duration_s: float = 2.0
    #: Warmup excluded from measurement, seconds.
    warmup_s: float = 0.5
    #: Device slow-down factor (pure time dilation; see DESIGN.md).
    device_scale: float = 8.0
    #: Base RNG seed for every measurement scenario.
    seed: int = 42


#: ``--mini`` measurement settings: the fastest deterministic smoke.
MINI_MATRIX = MatrixSettings(duration_s=0.3, warmup_s=0.1, device_scale=16.0)

#: ``--quick`` measurement settings: CI-friendly fidelity.
QUICK_MATRIX = MatrixSettings(duration_s=0.8, warmup_s=0.2, device_scale=8.0)


def measure_from_stats(stats, scale: float) -> TenantMeasure:
    """One tenant's full-speed delivery from its group's window stats.

    ``stats`` is the tenant's entry of ``summary.cgroup_stats()`` (None
    when it completed nothing) and ``scale`` the summary's
    ``device_scale``, converted by
    :func:`~repro.tune.slo.full_speed_delivery`; a starved tenant
    measures :data:`STARVED_P99_US`. A pair summary measures both
    tenants from one ``cgroup_stats()`` call this way.
    """
    p99, bandwidth = full_speed_delivery(stats, scale)
    return TenantMeasure(
        p99_us=STARVED_P99_US if p99 is None else p99, bandwidth_mib_s=bandwidth
    )


def slo_violation(measure: TenantMeasure, tenant: TenantSpec) -> float:
    """Score one tenant's (measured or predicted) delivery against its SLO.

    The tenant's objective scored by
    :func:`~repro.tune.slo.score_deliveries`, the tuner's capped
    per-term formulas; a starved tenant's :data:`STARVED_P99_US` scores
    as a p99 like any other. Zero means the SLO is met.
    """
    group = tenant.group_slo()
    if group is None:
        return 0.0
    deliveries = {group.cgroup: (measure.p99_us, measure.bandwidth_mib_s)}
    return score_deliveries(SloSpec(groups=(group,)), deliveries).total


def pair_effect(
    tenant: str,
    partner: str,
    base: TenantMeasure,
    shared: TenantMeasure,
    predicted: bool = False,
) -> PairEffect:
    """The directional effect of ``partner`` on ``tenant``: shared over solo.

    The one clamp of measured and predicted pairs alike: the p99 ratio
    is at least 1.0 and the bandwidth retention in ``[1e-6, 1]``; a zero
    solo baseline gives a neutral 1.0.
    """
    ratio = max(1.0, shared.p99_us / base.p99_us) if base.p99_us > 0 else 1.0
    if base.bandwidth_mib_s > 0:
        retention = shared.bandwidth_mib_s / base.bandwidth_mib_s
        retention = max(1e-6, min(1.0, retention))
    else:
        retention = 1.0
    return PairEffect(
        tenant=tenant,
        partner=partner,
        p99_ratio=ratio,
        bandwidth_retention=retention,
        predicted=predicted,
    )


def solo_scenario(
    fleet: FleetSpec, tenant: TenantSpec, settings: MatrixSettings
) -> Scenario:
    """The tenant-alone-on-a-device measurement scenario."""
    return Scenario(
        name=f"fleet-{fleet.name}-solo-{tenant.name}",
        knob=NoneKnob(),
        apps=[tenant.job_spec()],
        ssd_model=fleet.ssd_model(),
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        device_scale=settings.device_scale,
    )


def pair_scenario(
    fleet: FleetSpec,
    first: TenantSpec,
    second: TenantSpec,
    settings: MatrixSettings,
) -> Scenario:
    """The two-tenants-sharing-one-device measurement scenario."""
    return Scenario(
        name=f"fleet-{fleet.name}-pair-{first.name}+{second.name}",
        knob=NoneKnob(),
        apps=[first.job_spec(), second.job_spec()],
        ssd_model=fleet.ssd_model(),
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
        seed=settings.seed,
        device_scale=settings.device_scale,
    )


@dataclass(frozen=True)
class InterferenceMatrix:
    """Solo baselines plus directional pairwise degradation effects."""

    #: The fleet the matrix was measured for.
    fleet_name: str
    #: Tenant name -> solo delivery (the entitlement baseline).
    solo: dict[str, TenantMeasure]
    #: ``(tenant, partner)`` -> directional effect, both orders present
    #: for every unordered measured pair.
    effects: dict[tuple[str, str], PairEffect]

    def effect(self, tenant: str, partner: str) -> PairEffect:
        """The directional effect of ``partner`` on ``tenant``."""
        try:
            return self.effects[(tenant, partner)]
        except KeyError:
            raise KeyError(
                f"no measured effect of {partner!r} on {tenant!r} "
                f"in matrix for {self.fleet_name!r}"
            ) from None

    def predicted(self, tenant: str, co_residents: tuple[str, ...]) -> TenantMeasure:
        """Predict a tenant's delivery among the given co-residents.

        Pairwise effects compose multiplicatively (the independence
        approximation): p99 multiplies every co-resident's
        ``p99_ratio``, bandwidth multiplies every ``bandwidth_retention``.
        With no co-residents this is the solo measurement.
        """
        measure = self.solo[tenant]
        p99 = measure.p99_us
        bandwidth = measure.bandwidth_mib_s
        for other in co_residents:
            if other == tenant:
                continue
            pair = self.effect(tenant, other)
            p99 = min(STARVED_P99_US, p99 * pair.p99_ratio)
            bandwidth *= pair.bandwidth_retention
        return TenantMeasure(p99_us=p99, bandwidth_mib_s=bandwidth)

    def to_json_dict(self) -> dict:
        """Plain-dict form (stable ordering for golden files)."""
        return {
            "fleet_name": self.fleet_name,
            "solo": {
                name: self.solo[name].to_json_dict() for name in sorted(self.solo)
            },
            "effects": [
                self.effects[key].to_json_dict() for key in sorted(self.effects)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "InterferenceMatrix":
        """Rebuild from a :meth:`to_json_dict` document."""
        effects = {}
        for entry in doc["effects"]:
            effect = PairEffect.from_json_dict(entry)
            effects[(effect.tenant, effect.partner)] = effect
        return cls(
            fleet_name=doc["fleet_name"],
            solo={
                name: TenantMeasure.from_json_dict(entry)
                for name, entry in doc["solo"].items()
            },
            effects=effects,
        )


def tenant_pairs(fleet: FleetSpec) -> list[tuple[TenantSpec, TenantSpec]]:
    """Every unordered tenant pair, in tenant declaration order."""
    tenants = fleet.tenants
    return [
        (first, second)
        for i, first in enumerate(tenants)
        for second in tenants[i + 1 :]
    ]


def matrix_scenarios(
    fleet: FleetSpec,
    settings: MatrixSettings,
    measure_pairs: int | None = None,
) -> list[Scenario]:
    """Every scenario the matrix measures: N solo runs + pair runs.

    Ordered solo-first then pairs in tenant declaration order, so one
    :meth:`~repro.exec.executor.SweepExecutor.run_strict` call fans the
    whole measurement out and results map back positionally. With
    ``measure_pairs`` set, only the first that many pairs are measured
    (the rest are for a surrogate predictor to fill in).
    """
    pairs = tenant_pairs(fleet)
    if measure_pairs is not None:
        pairs = pairs[:measure_pairs]
    scenarios = [
        solo_scenario(fleet, tenant, settings) for tenant in fleet.tenants
    ]
    scenarios.extend(
        pair_scenario(fleet, first, second, settings) for first, second in pairs
    )
    return scenarios


def build_matrix(
    fleet: FleetSpec,
    settings: MatrixSettings,
    executor: SweepExecutor | None = None,
    predictor=None,
    measure_pairs: int | None = None,
) -> InterferenceMatrix:
    """Measure (and optionally predict) the fleet's interference matrix.

    Runs :func:`matrix_scenarios` through the (cached, parallel) sweep
    executor, then derives solo baselines and directional pair effects.
    Deterministic: the same fleet + settings produce a bit-identical
    matrix at any worker count, and a warm cache executes nothing.

    ``measure_pairs`` caps how many pairs (in declaration order) are
    measured with real pair scenarios; the remainder are filled in by
    ``predictor(first, second, solo) -> (effect_on_first,
    effect_on_second)`` -- e.g. a
    :class:`~repro.surrogate.predictor.SurrogatePairPredictor` -- whose
    effects carry ``predicted=True``. Capping without a predictor is an
    error: the matrix must stay complete.
    """
    pairs = tenant_pairs(fleet)
    measured = pairs if measure_pairs is None else pairs[:measure_pairs]
    if len(measured) < len(pairs) and predictor is None:
        raise ValueError(
            f"measure_pairs={measure_pairs} leaves "
            f"{len(pairs) - len(measured)} of {len(pairs)} pairs "
            "unmeasured; pass predictor= to fill them in"
        )
    runner = resolve_executor(executor)
    tenants = fleet.tenants
    summaries = runner.run_strict(
        matrix_scenarios(fleet, settings, measure_pairs=measure_pairs)
    )

    solo: dict[str, TenantMeasure] = {}
    for tenant, summary in zip(tenants, summaries[: len(tenants)]):
        solo[tenant.name] = measure_from_stats(
            summary.cgroup_stats().get(tenant.cgroup), summary.device_scale
        )

    effects: dict[tuple[str, str], PairEffect] = {}
    cursor = len(tenants)
    for first, second in measured:
        summary = summaries[cursor]
        cursor += 1
        groups = summary.cgroup_stats()
        for tenant, partner in ((first, second), (second, first)):
            shared = measure_from_stats(
                groups.get(tenant.cgroup), summary.device_scale
            )
            effects[(tenant.name, partner.name)] = pair_effect(
                tenant.name, partner.name, solo[tenant.name], shared
            )

    for first, second in pairs[len(measured):]:
        effect_first, effect_second = predictor(first, second, solo)
        effects[(first.name, second.name)] = effect_first
        effects[(second.name, first.name)] = effect_second

    return InterferenceMatrix(fleet_name=fleet.name, solo=solo, effects=effects)
