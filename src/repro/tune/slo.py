"""Tenant SLO specifications and violation scoring.

The paper's Table I asks "which knob, configured how?" against a set of
desiderata; an operator asks the same question against a *service level
objective*: "tenant A's p99 stays under X, tenant B keeps at least Y
MiB/s, and the device is not left idle". :class:`SloSpec` captures that
contract and :func:`score_summary` turns one
:class:`~repro.exec.summary.ScenarioSummary` into a scalar
**SLO-violation score** the search strategies in
:mod:`repro.tune.search` minimize.

Units are always *full-device-speed* microseconds and MiB/s: scenario
summaries carry time-dilated numbers (see ``SsdModel.scaled``), and the
scorer converts them back using ``summary.device_scale``, so one SLO
spec is valid at every effort level (``--mini`` through full scale).

Scoring model (lower is better, ``0.0`` means every term is met):

* a p99 ceiling contributes ``measured/target - 1`` when exceeded;
* a bandwidth floor contributes ``(target - measured)/target``;
* the device-utilization floor contributes ``(floor - util)/floor``
  where ``util`` is aggregate bandwidth over the device's nominal 4 KiB
  random-read saturation (overridable);
* each term is clamped to :data:`VIOLATION_CAP` so a starved group (no
  completions at all) dominates without producing infinities, and the
  terms stay comparable across knobs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exec.summary import ScenarioSummary
from repro.metrics.latency import seq_sum
from repro.ssd.model import SsdModel, describe_model_dict

#: Per-term ceiling on the normalized violation. A cgroup that completes
#: no I/O at all scores the cap on each of its terms -- decisively worse
#: than any functioning configuration, but still finite and comparable.
VIOLATION_CAP = 10.0


@dataclass(frozen=True)
class GroupSlo:
    """The objective of one cgroup, in full-device-speed units."""

    #: Cgroup path the objective applies to (e.g. ``/tenants/prio``).
    cgroup: str
    #: Pooled p99 latency ceiling in microseconds; None = no ceiling.
    p99_latency_us: float | None = None
    #: Bandwidth floor in MiB/s; None = no floor.
    min_bandwidth_mib_s: float | None = None

    def __post_init__(self) -> None:
        if not self.cgroup.startswith("/"):
            raise ValueError(f"cgroup path must be absolute, got {self.cgroup!r}")
        if self.p99_latency_us is not None and self.p99_latency_us <= 0:
            raise ValueError("p99_latency_us must be positive")
        if self.min_bandwidth_mib_s is not None and self.min_bandwidth_mib_s <= 0:
            raise ValueError("min_bandwidth_mib_s must be positive")
        if self.p99_latency_us is None and self.min_bandwidth_mib_s is None:
            raise ValueError(f"group {self.cgroup!r} declares no objective")


@dataclass(frozen=True)
class SloSpec:
    """A complete tenant SLO: per-group objectives plus a global floor."""

    #: Per-cgroup objectives (at least one required).
    groups: tuple[GroupSlo, ...]
    #: Minimum fraction of the device's nominal saturation bandwidth the
    #: configuration must keep in use (the paper's D3 utilization axis);
    #: None disables the term.
    utilization_floor: float | None = None
    #: Reference bandwidth for the utilization term, MiB/s at full device
    #: speed; None derives the 4 KiB random-read saturation point from
    #: the scenario's SSD model (the same source ``tune.space`` uses).
    utilization_reference_mib_s: float | None = None
    #: Relative weights of the three term families in the total score.
    latency_weight: float = 1.0
    bandwidth_weight: float = 1.0
    utilization_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("an SLO spec needs at least one group objective")
        paths = [group.cgroup for group in self.groups]
        if len(set(paths)) != len(paths):
            raise ValueError(f"duplicate group objectives: {sorted(paths)}")
        if self.utilization_floor is not None and not 0 < self.utilization_floor <= 1:
            raise ValueError("utilization_floor must be in (0, 1]")
        for name in ("latency_weight", "bandwidth_weight", "utilization_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def describe(self) -> str:
        """The spec in ``parse_slo`` syntax (round-trips through it)."""
        parts = []
        for group in self.groups:
            terms = []
            if group.p99_latency_us is not None:
                terms.append(f"p99<={group.p99_latency_us:g}")
            if group.min_bandwidth_mib_s is not None:
                terms.append(f"bw>={group.min_bandwidth_mib_s:g}")
            parts.append(f"{group.cgroup}:{','.join(terms)}")
        if self.utilization_floor is not None:
            parts.append(f"util>={self.utilization_floor:g}")
        return ";".join(parts)


_GROUP_TERM_RE = re.compile(r"^(p99<=|bw>=)\s*([0-9.eE+-]+)\s*(us|mib)?$")
_UTIL_RE = re.compile(r"^util>=\s*([0-9.eE+-]+)$")


def parse_group_terms(terms_text: str) -> tuple[float | None, float | None]:
    """Parse one group's ``p99<=N,bw>=N`` term list.

    This is the per-group half of the :func:`parse_slo` grammar, exposed
    on its own so other subsystems (``repro.fleet``'s tenant SLOs) can
    reuse the exact syntax without synthesizing a full spec string.
    Returns ``(p99_latency_us, min_bandwidth_mib_s)``; either side is
    None when its term is absent.
    """
    p99 = bandwidth = None
    for term in terms_text.split(","):
        term = term.strip()
        if not term:
            continue
        match = _GROUP_TERM_RE.match(term)
        if not match:
            raise ValueError(f"cannot parse SLO term {term!r} in {terms_text!r}")
        value = float(match.group(2))
        if match.group(1) == "p99<=":
            p99 = value
        else:
            bandwidth = value
    return p99, bandwidth


def parse_slo(text: str) -> SloSpec:
    """Parse the CLI's compact SLO syntax into an :class:`SloSpec`.

    Grammar (semicolon-separated clauses)::

        /cgroup/path:p99<=400,bw>=40 ; /other:bw>=100 ; util>=0.25

    ``p99<=`` is a latency ceiling in microseconds (optional ``us``
    suffix), ``bw>=`` a bandwidth floor in MiB/s (optional ``mib``
    suffix), ``util>=`` the device-utilization floor as a fraction.
    """
    groups: list[GroupSlo] = []
    utilization_floor: float | None = None
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        util_match = _UTIL_RE.match(clause)
        if util_match:
            if utilization_floor is not None:
                raise ValueError(f"duplicate util>= clause in {text!r}")
            utilization_floor = float(util_match.group(1))
            continue
        path, sep, terms_text = clause.partition(":")
        if not sep or not path.startswith("/"):
            raise ValueError(
                f"cannot parse SLO clause {clause!r}; expected "
                f"'/cgroup:p99<=N,bw>=N' or 'util>=F'"
            )
        p99, bandwidth = parse_group_terms(terms_text)
        groups.append(
            GroupSlo(cgroup=path, p99_latency_us=p99, min_bandwidth_mib_s=bandwidth)
        )
    return SloSpec(groups=tuple(groups), utilization_floor=utilization_floor)


@dataclass(frozen=True)
class SloTerm:
    """One scored objective: what was asked, what was measured."""

    #: Term family: ``p99`` | ``bandwidth`` | ``utilization``.
    kind: str
    #: Cgroup path the term belongs to ("" for the utilization term).
    cgroup: str
    #: The SLO bound, in the term's native full-speed unit.
    target: float
    #: The measured full-speed value (``inf`` for a starved group's p99).
    measured: float
    #: Normalized, capped violation (0.0 when the bound is met).
    violation: float

    def to_json_dict(self) -> dict:
        """Plain-dict form for reports and decision traces."""
        measured = self.measured
        return {
            "kind": self.kind,
            "cgroup": self.cgroup,
            "target": self.target,
            "measured": measured if measured != float("inf") else "inf",
            "violation": self.violation,
        }


@dataclass(frozen=True)
class SloScore:
    """A scored summary: per-term breakdown plus the weighted total."""

    terms: tuple[SloTerm, ...]
    #: The spec's term-family weights, captured for reproducible totals.
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def _family_total(self, kind: str) -> float:
        """Sum the violations of every term of the given kind."""
        return seq_sum(term.violation for term in self.terms if term.kind == kind)

    @property
    def latency_total(self) -> float:
        """Summed p99 violations (unweighted)."""
        return self._family_total("p99")

    @property
    def bandwidth_total(self) -> float:
        """Summed bandwidth-floor violations (unweighted)."""
        return self._family_total("bandwidth")

    @property
    def utilization_total(self) -> float:
        """The utilization-floor violation (unweighted)."""
        return self._family_total("utilization")

    @property
    def total(self) -> float:
        """The weighted SLO-violation score the tuner minimizes."""
        lat_w, bw_w, util_w = self.weights
        return (
            lat_w * self.latency_total
            + bw_w * self.bandwidth_total
            + util_w * self.utilization_total
        )

    @property
    def meets_slo(self) -> bool:
        """True when every term is satisfied."""
        return all(term.violation == 0.0 for term in self.terms)

    @property
    def needs_tightening(self) -> bool:
        """Latency objectives are violated: control must get stricter.

        The binary-search strategy uses this as its bracketing signal;
        when False but other terms are violated, control should *loosen*
        to win back bandwidth/utilization.
        """
        return self.latency_total > 0.0

    def to_json_dict(self) -> dict:
        """Plain-dict form for reports and decision traces."""
        return {
            "total": self.total,
            "meets_slo": self.meets_slo,
            "terms": [term.to_json_dict() for term in self.terms],
        }


def default_utilization_reference_mib_s(ssd: SsdModel) -> float:
    """The utilization term's denominator: 4 KiB random-read saturation.

    Derived through :func:`~repro.ssd.model.describe_model_dict` -- the
    same document ``isol-bench describe-device --json`` prints and
    :mod:`repro.tune.space` derives its bounds from, so the CLI, the
    parameter spaces and the scorer agree on the device's capacity.
    """
    doc = describe_model_dict(ssd)
    return doc["cases"]["rand-read-4k"]["bandwidth_bps"] / (1024.0 * 1024.0)


def _capped(violation: float) -> float:
    """Clamp a violation into ``[0, VIOLATION_CAP]``."""
    return max(0.0, min(VIOLATION_CAP, violation))


def score_cgroup_stats(
    spec: SloSpec,
    groups: dict,
    device_scale: float,
    aggregate_bandwidth_mib_s: float | None = None,
    ssd: SsdModel | None = None,
) -> SloScore:
    """Score a set of per-cgroup window stats against an SLO spec.

    The shared core behind :func:`score_summary` (whole-run scoring for
    the tuner) and the :mod:`repro.ctl` control plane (windowed live
    scoring mid-run): ``groups`` maps cgroup paths to
    :class:`~repro.metrics.collector.AppWindowStats`-shaped objects in
    *dilated* units, which this function converts back to full device
    speed using ``device_scale``. ``aggregate_bandwidth_mib_s`` is the
    full-speed all-group bandwidth for the utilization term (required
    when ``spec.utilization_floor`` is set); ``ssd`` is the unscaled
    device model used to derive the utilization reference when the spec
    does not pin one.
    """
    scale = device_scale
    terms: list[SloTerm] = []

    for group in spec.groups:
        stats = groups.get(group.cgroup)
        if group.p99_latency_us is not None:
            if stats is None or stats.latency is None:
                measured = float("inf")
                violation = VIOLATION_CAP
            else:
                measured = stats.latency.p99_us / scale
                violation = _capped(measured / group.p99_latency_us - 1.0)
            terms.append(
                SloTerm("p99", group.cgroup, group.p99_latency_us, measured, violation)
            )
        if group.min_bandwidth_mib_s is not None:
            measured = stats.bandwidth_mib_s * scale if stats is not None else 0.0
            violation = _capped(
                (group.min_bandwidth_mib_s - measured) / group.min_bandwidth_mib_s
            )
            terms.append(
                SloTerm(
                    "bandwidth",
                    group.cgroup,
                    group.min_bandwidth_mib_s,
                    measured,
                    violation,
                )
            )

    if spec.utilization_floor is not None:
        reference = spec.utilization_reference_mib_s
        if reference is None:
            if ssd is None:
                raise ValueError(
                    "utilization_floor needs either an explicit "
                    "utilization_reference_mib_s or the scenario's SsdModel"
                )
            reference = default_utilization_reference_mib_s(ssd)
        if aggregate_bandwidth_mib_s is None:
            raise ValueError(
                "utilization_floor needs the aggregate full-speed bandwidth"
            )
        utilization = aggregate_bandwidth_mib_s / reference
        violation = _capped(
            (spec.utilization_floor - utilization) / spec.utilization_floor
        )
        terms.append(
            SloTerm("utilization", "", spec.utilization_floor, utilization, violation)
        )

    return SloScore(
        terms=tuple(terms),
        weights=(spec.latency_weight, spec.bandwidth_weight, spec.utilization_weight),
    )


def score_summary(
    spec: SloSpec,
    summary: ScenarioSummary,
    ssd: SsdModel | None = None,
) -> SloScore:
    """Score one scenario summary against an SLO spec.

    ``ssd`` is the *unscaled* device model, used only to derive the
    utilization reference when the spec does not pin one; it is required
    when ``spec.utilization_floor`` is set and no explicit
    ``utilization_reference_mib_s`` is given.
    """
    return score_cgroup_stats(
        spec,
        summary.cgroup_stats(),
        summary.device_scale,
        aggregate_bandwidth_mib_s=summary.equivalent_bandwidth_gib_s * 1024.0,
        ssd=ssd,
    )
