"""Latency statistics: percentiles, CDFs, summaries.

The paper evaluates latency "as P99 or as a CDF" (§III); these helpers
are shared by the metrics layer and by the controllers themselves
(io.latency's P90 window check, io.cost's QoS percentiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def seq_sum(values: Iterable[float] | np.ndarray) -> float:
    """Left-to-right sum, the same bits on every supported Python.

    3.12's ``sum()`` compensates float rounding; 3.10 and 3.11 do not.
    Arrays go through ``cumsum`` (sequential); ``np.sum`` is pairwise.
    """
    if isinstance(values, np.ndarray):
        return float(np.cumsum(values)[-1]) if values.size else 0.0
    total = 0
    for value in values:
        total += value
    return total


def _ranked(ordered, pct: float) -> float:
    """The ``pct`` percentile of sorted, non-empty ``ordered``."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    # This form is monotone and never exceeds ordered[high], unlike the
    # (1-f)*a + f*b form which can overshoot by one ulp.
    a = float(ordered[low])
    return a + (float(ordered[high]) - a) * frac


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples``.

    Raises ``ValueError`` on an empty sample set: callers decide how to
    treat windows with no I/O rather than silently reading 0.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return _ranked(sorted(samples), pct)


def cdf(samples: Sequence[float], points: int = 200) -> tuple[list[float], list[float]]:
    """Empirical CDF resampled at ``points`` evenly spaced probabilities.

    Returns ``(latencies, cumulative_probabilities)`` -- the paper's
    Fig. 3 axes. ``samples`` may be a float64 array; it is sorted once.
    """
    if len(samples) == 0:
        raise ValueError("cdf of empty sample set")
    if points < 2:
        raise ValueError(f"cdf needs >= 2 points, got {points}")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    probs = [i / (points - 1) for i in range(points)]
    values = [_ranked(ordered, p * 100.0) for p in probs]
    return values, probs


@dataclass(frozen=True)
class LatencySummary:
    """The latency profile the paper reports per app."""

    count: int
    mean_us: float
    p50_us: float
    p90_us: float
    p95_us: float
    p99_us: float
    max_us: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean_us:.1f}us "
            f"p50={self.p50_us:.1f} p90={self.p90_us:.1f} "
            f"p99={self.p99_us:.1f} max={self.max_us:.1f}"
        )


def summarize_latencies(samples: Sequence[float] | np.ndarray) -> LatencySummary:
    """Build a :class:`LatencySummary`; raises on an empty sample set.

    Sorts once; the mean is the :func:`seq_sum` of the sorted samples.
    """
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample set")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    return LatencySummary(
        count=len(ordered),
        mean_us=seq_sum(ordered) / len(ordered),
        p50_us=_ranked(ordered, 50.0),
        p90_us=_ranked(ordered, 90.0),
        p95_us=_ranked(ordered, 95.0),
        p99_us=_ranked(ordered, 99.0),
        max_us=float(ordered[-1]),
    )
