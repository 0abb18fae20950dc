"""Table I: scoring the four desiderata per knob.

Each desideratum is scored ``YES`` / ``PARTIAL`` / ``NO`` from measured
sub-benchmark results, following the criteria the paper's §VII discussion
applies (PARTIAL corresponds to the paper's "--" cells):

* **Low overhead (D1)**: peak 1-SSD bandwidth within 10% of "none" and
  1-app P99 within 10%; PARTIAL if only the past-CPU-saturation P99
  criterion fails (io.cost's deferred-timer cost).
* **Proportional fairness (D2)**: weighted Jain >= 0.9 at 2 and 16
  groups, uniform Jain at 16 groups >= 0.95, mixed-request-size
  Jain >= 0.85. PARTIAL when the scores pass but the knob is *static*
  (io.max: a practitioner must recompute limits as tenants come and go;
  measured here via the non-work-conservation probe).
* **Priority/utilization trade-offs (D3)**: a Pareto front with >= 4
  distinguishable operating points spanning a meaningful utilization
  range, for the 4 KiB BE variant AND the hard variants (256 KiB,
  writes). PARTIAL when only the 4 KiB variant works.
* **Priority bursts (D4)**: priority-app objective restored within
  500 ms of a burst; NO beyond 2 s (io.latency's window staircase);
  knobs without any prioritization mechanism score NO here regardless
  of raw speed (you cannot "respond" to a priority you cannot express).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Score(enum.Enum):
    """A Table I cell."""

    YES = "yes"
    PARTIAL = "partial"
    NO = "no"

    @property
    def symbol(self) -> str:
        return {"yes": "v", "partial": "-", "no": "x"}[self.value]


@dataclass
class DesiderataInputs:
    """Measured quantities feeding the Table I scoring for one knob."""

    knob: str
    # D1
    peak_bandwidth_ratio_vs_none: float = 1.0
    p99_overhead_1app: float = 0.0  # fractional increase vs none
    p99_overhead_saturated: float = 0.0
    # D2
    fairness_uniform_16: float = 1.0
    fairness_weighted_2: float = 1.0
    fairness_weighted_16: float = 1.0
    fairness_mixed_sizes: float = 1.0
    static_configuration: bool = False  # needs manual re-translation
    # D3
    front_clusters_rand4k: int = 0
    front_utilization_span_fraction: float = 0.0
    hard_variants_effective: bool = False
    has_prioritization: bool = True
    # D4
    burst_response_ms: float | None = None


#: Inputs that are declared per knob rather than measured; the Table I
#: JSON reports only the measured ones.
_DECLARED_INPUTS = ("knob", "static_configuration", "has_prioritization")


@dataclass
class TableOneRow:
    """One knob's Table I row."""

    knob: str
    low_overhead: Score
    proportional_fairness: Score
    priority_utilization_tradeoffs: Score
    priority_bursts: Score

    def cells(self) -> list[Score]:
        return [
            self.low_overhead,
            self.proportional_fairness,
            self.priority_utilization_tradeoffs,
            self.priority_bursts,
        ]


def score_low_overhead(inputs: DesiderataInputs) -> Score:
    bandwidth_ok = inputs.peak_bandwidth_ratio_vs_none >= 0.90
    latency_ok = inputs.p99_overhead_1app <= 0.10
    saturated_ok = inputs.p99_overhead_saturated <= 0.15
    if bandwidth_ok and latency_ok and saturated_ok:
        return Score.YES
    if bandwidth_ok and latency_ok:
        # Only the past-saturation latency criterion failed (io.cost).
        return Score.PARTIAL
    return Score.NO


def score_fairness(inputs: DesiderataInputs) -> Score:
    passes = (
        inputs.fairness_uniform_16 >= 0.95
        and inputs.fairness_weighted_2 >= 0.90
        and inputs.fairness_weighted_16 >= 0.90
        and inputs.fairness_mixed_sizes >= 0.85
    )
    if not passes:
        return Score.NO
    if inputs.static_configuration:
        return Score.PARTIAL
    return Score.YES


def score_tradeoffs(inputs: DesiderataInputs) -> Score:
    fine_grained = (
        inputs.front_clusters_rand4k >= 4
        and inputs.front_utilization_span_fraction >= 0.3
    )
    if not fine_grained:
        return Score.NO
    if not inputs.hard_variants_effective or inputs.static_configuration:
        return Score.PARTIAL
    return Score.YES


def score_bursts(inputs: DesiderataInputs, tradeoffs: Score) -> Score:
    # §VI-C: "we evaluate the response time for knobs that have
    # prioritization capabilities" -- a knob that cannot express usable
    # priorities (BFQ; MQ-DL's 3 coarse options) cannot serve bursty
    # priority apps however fast its mechanism reacts.
    if not inputs.has_prioritization or tradeoffs == Score.NO:
        return Score.NO
    if inputs.burst_response_ms is None or inputs.burst_response_ms > 2000.0:
        return Score.NO
    if inputs.burst_response_ms <= 500.0:
        if inputs.static_configuration:
            return Score.PARTIAL
        return Score.YES
    return Score.PARTIAL


def score_all(inputs: DesiderataInputs) -> TableOneRow:
    """Score one knob's full Table I row."""
    tradeoffs = score_tradeoffs(inputs)
    return TableOneRow(
        knob=inputs.knob,
        low_overhead=score_low_overhead(inputs),
        proportional_fairness=score_fairness(inputs),
        priority_utilization_tradeoffs=tradeoffs,
        priority_bursts=score_bursts(inputs, tradeoffs),
    )


#: The paper's published Table I, used as the expected reference by the
#: Table-I bench: rows are (overhead, fairness, trade-offs, bursts).
PAPER_TABLE_ONE: dict[str, tuple[str, str, str, str]] = {
    "mq-deadline": ("x", "x", "x", "x"),
    "bfq": ("x", "x", "x", "x"),
    "io.max": ("v", "-", "-", "-"),
    "io.latency": ("v", "x", "-", "x"),
    "io.cost": ("-", "v", "v", "v"),
}


@dataclass
class TableOne:
    """The full reproduced table plus the paper's reference cells."""

    rows: list[TableOneRow] = field(default_factory=list)
    # The measured quantities behind each row, for regression goldens.
    inputs: dict[str, DesiderataInputs] = field(default_factory=dict)

    def render(self) -> str:
        header = (
            f"{'knob':<22s} {'LowOverhead':>12s} {'PropFairness':>13s} "
            f"{'PrioUtilTrade':>14s} {'PrioBursts':>11s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            expected = PAPER_TABLE_ONE.get(row.knob)
            cells = [cell.symbol for cell in row.cells()]
            annotated = [
                f"{cell}(paper {exp})" if expected else cell
                for cell, exp in zip(cells, expected or cells)
            ]
            lines.append(
                f"{row.knob:<22s} {annotated[0]:>12s} {annotated[1]:>13s} "
                f"{annotated[2]:>14s} {annotated[3]:>11s}"
            )
        return "\n".join(lines)

    def matches_paper(self) -> dict[str, int]:
        """Number of matching cells per knob (out of 4)."""
        matches: dict[str, int] = {}
        for row in self.rows:
            expected = PAPER_TABLE_ONE.get(row.knob)
            if expected is None:
                continue
            matches[row.knob] = sum(
                1
                for cell, exp in zip(row.cells(), expected)
                if cell.symbol == exp
            )
        return matches

    def to_json_dict(self) -> dict:
        """Golden-friendly document: verdicts, paper matches, inputs."""
        return {
            "verdicts": {
                row.knob: [cell.symbol for cell in row.cells()] for row in self.rows
            },
            "matches_paper": self.matches_paper(),
            "inputs": {
                knob: {
                    name: value
                    for name, value in vars(inputs).items()
                    if name not in _DECLARED_INPUTS
                }
                for knob, inputs in sorted(self.inputs.items())
            },
        }
