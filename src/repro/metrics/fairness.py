"""Jain's fairness index, plain and weighted.

The paper adopts Jain's index from network research (§II-B): with
allocations ``x_i``, ``J = (sum x)^2 / (n * sum x^2)``; 1.0 is perfectly
fair, ``1/n`` is maximally unfair. For *proportional* fairness each
bandwidth is first normalized by its relative weight, so an app holding
exactly ``w_i / sum(w)`` of the total scores 1.0.

As the paper notes, the metric does not credit an app for demanding less
than its share -- the reason io.cost's deliberate read preference scores
"unfair" in mixed read/write workloads (O5).
"""

from __future__ import annotations

from typing import Sequence

from repro.metrics.latency import seq_sum


def jain_index(allocations: Sequence[float]) -> float:
    """Plain Jain's fairness index over non-negative allocations."""
    if not allocations:
        raise ValueError("jain_index of empty allocation set")
    if any(value < 0 for value in allocations):
        raise ValueError("allocations must be non-negative")
    total = seq_sum(allocations)
    if total == 0:
        # No one received anything; conventionally fair.
        return 1.0
    square_sum = seq_sum(value * value for value in allocations)
    return total * total / (len(allocations) * square_sum)


def weighted_jain_index(
    allocations: Sequence[float], weights: Sequence[float]
) -> float:
    """Jain's index over weight-normalized allocations (§VI-A).

    Each allocation is divided by its weight before computing the index,
    so the ideal proportional split scores exactly 1.0 regardless of the
    weight distribution.
    """
    if len(allocations) != len(weights):
        raise ValueError(
            f"{len(allocations)} allocations but {len(weights)} weights"
        )
    if any(weight <= 0 for weight in weights):
        raise ValueError("weights must be positive")
    normalized = [alloc / weight for alloc, weight in zip(allocations, weights)]
    return jain_index(normalized)
