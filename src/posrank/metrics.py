"""Ranking metrics: AUC and its impression-weighted per-position average.

The per-position average scores relevance ranking quality at each display
slot separately, so adding any constant to all scores at one position
leaves it unchanged. Positions where all labels agree have no defined AUC:
their `PositionAuc.auc` is NaN and they are dropped from both the numerator
and the denominator. A report's per-position table is a list of flat
`PositionAuc` rows, written with `data.write_tsv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError, UsageError


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Rank-sum (Mann-Whitney) computation, ties credited 0.5. O(n log n).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise UsageError(f"auc: scores/labels must be equal-length vectors, got {s.shape}/{y.shape}")
    if not np.all(np.isfinite(s)):
        raise UsageError("auc: scores must be finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != y.size:
        raise UsageError("auc: labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc undefined: only one class present")

    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # midranks: average 1-based rank within each tie group [start, end)
    start = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    end = np.r_[start[1:], s.size]
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
    rank_sum_pos = ranks[y == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class PositionAuc:
    """One display position's AUC; NaN when its impressions have one label class."""

    position: int
    impressions: int
    auc: float


@dataclass
class PaucReport:
    """Per-position AUC rows plus the impression-weighted average and the overall AUC."""

    pauc: float
    overall_auc: float
    positions: list[PositionAuc] = field(default_factory=list)


def pauc(scores, labels, positions) -> PaucReport:
    """Impression-weighted mean of per-position AUCs.

    Groups impressions by display position, which must be a finite integer
    (`UsageError` otherwise); positions with a single label class get a NaN
    AUC and are excluded from both sums. Any position with both classes
    gives the whole set both, so the overall AUC is defined whenever PAUC is.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    k = np.asarray(positions)
    if not (s.shape == y.shape == k.shape) or s.ndim != 1 or s.size == 0:
        raise UsageError("pauc: scores, labels and positions must be equal-length non-empty vectors")
    kf = k.astype(np.float64)
    if not np.all(np.isfinite(kf) & (kf == np.floor(kf))):
        raise UsageError("pauc: positions must be finite integers")

    rows: list[PositionAuc] = []
    weighted = 0.0
    total = 0
    for pos in sorted(set(int(v) for v in k)):
        mask = k == pos
        n = int(mask.sum())
        try:
            a = auc(s[mask], y[mask])
        except UndefinedMetricError:
            rows.append(PositionAuc(pos, n, float("nan")))
            continue
        rows.append(PositionAuc(pos, n, a))
        weighted += n * a
        total += n
    if total == 0:
        raise UndefinedMetricError("pauc undefined: every position has a single label class")
    return PaucReport(pauc=weighted / total, overall_auc=auc(s, y), positions=rows)
