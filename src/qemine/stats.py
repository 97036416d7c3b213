"""Correlation statistics: Pearson, the dependent-correlation t test,
the Student-t tail it needs, and score histograms.

The t test compares two correlations r13 and r23 that share variable 1
(two systems' correlations with the same gold scores), accounting for
the inter-system correlation r12:

    t = (r13 - r23) * sqrt( (n-1)(1+r12) /
        ( 2K(n-1)/(n-3) + ((r13+r23)^2 / 4)(1-r12)^3 ) )

with K = 1 - r12^2 - r13^2 - r23^2 + 2*r12*r13*r23 (the determinant of
the 3x3 correlation matrix) and n-3 degrees of freedom.  The reported
p-value is one-tailed: P(T > t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

__all__ = ["pearson", "williams_test", "WilliamsResult", "t_tail", "score_histogram", "histogram_csv"]


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length sequences."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D sequences, got {x.shape} and {y.shape}")
    if len(x) < 3:
        raise ValueError("correlation needs at least 3 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for a constant input")
    return float(dx @ dy) / (sx * sy)


def t_tail(t: float, df: int) -> float:
    """One-tailed tail probability P(T > t) of Student's t with df degrees."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    from scipy.special import stdtr  # on first use: importing it costs every process ~5 MB
    return float(stdtr(df, -float(t)))


@dataclass(frozen=True)
class WilliamsResult:
    """t statistic, n-3 degrees of freedom, and one-tailed p-value."""

    t_statistic: float
    degrees_of_freedom: int
    p_value: float

    def __post_init__(self):
        if self.degrees_of_freedom < 1:
            raise ValueError("degrees of freedom must be >= 1")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0,1]")


def williams_test(r12: float, r13: float, r23: float, n: int) -> WilliamsResult:
    """Significance of the difference between dependent correlations r13 and r23.

    See the module docstring for the statistic.  The correlation triple
    must form a positive semidefinite matrix and n must be at least 4.
    """
    for name, r in (("r12", r12), ("r13", r13), ("r23", r23)):
        if not -1.0 < r < 1.0:
            raise ValueError(f"{name} must lie in (-1,1), got {r}")
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    k = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    if k < -1e-12:
        raise ValueError("correlation triple is not positive semidefinite")
    k = max(k, 0.0)
    numerator = (r13 - r23) * math.sqrt((n - 1) * (1.0 + r12))
    denom_sq = 2.0 * k * (n - 1) / (n - 3) + ((r13 + r23) ** 2 / 4.0) * (1.0 - r12) ** 3
    if denom_sq <= 0.0:
        t = 0.0 if numerator == 0.0 else math.copysign(math.inf, numerator)
    else:
        t = numerator / math.sqrt(denom_sq)
    df = n - 3
    return WilliamsResult(t, df, t_tail(t, df))


def score_histogram(scores, bins: int) -> np.ndarray:
    """Counts over equal-width bins of [0,1]; left-closed, last bin closed.

    A score s lands in bin min(floor(s*bins), bins-1), so 1.0 falls in
    the last bin and interior boundaries belong to the bin on their right.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    counts = np.zeros(bins, dtype=np.int64)
    for s in scores:
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise RangeError(f"score {s} outside [0,1]")
        counts[min(int(s * bins), bins - 1)] += 1
    return counts


def histogram_csv(counts) -> str:
    bins = len(counts)
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{i / bins!r},{(i + 1) / bins!r},{int(c)}" for i, c in enumerate(counts)]
    return "\n".join(lines) + "\n"
