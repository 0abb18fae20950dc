"""Agreement between two equal-length series: rank correlation and MAE.

Plain statistics over two vectors, such as predicted against measured
p99: the surrogate's fit metrics and trust report and the tuner's
pooled surrogate summary read them.
"""

from __future__ import annotations

import numpy as np


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), deterministic."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 2:
        return 0.0
    ra, rb = _ranks(a), _ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


def mean_absolute_error(a, b) -> float:
    """Plain MAE between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).mean())
