"""Evaluation metrics: benchmark ranking score and reputation-error Pearson.

The ranking score is the mean normalized rank position of a set of
known-good items in the quality-sorted list (lower is better, 1-based, ties
midranked). The correlation metric measures how well estimated reputations
track the hidden per-user error magnitudes of a synthetic network. Midranks
take one numpy sort and binary searches for the items ranked, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import BenchmarkSet


@dataclass(frozen=True)
class RankingScore:
    value: float
    benchmark_size: int

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"ranking score {self.value:g} outside (0, 1]")
        if self.benchmark_size < 1:
            raise ValueError("benchmark_size must be >= 1")


class Correlation(NamedTuple):
    value: float
    degenerate: bool


def quality_ranks(qualities: np.ndarray) -> np.ndarray:
    """1-based descending midranks of a quality vector.

    Ties share the average of their positions. NaN entries rank after
    every finite quality, midranked among themselves.
    """
    return _midranks(qualities, slice(None))


def _midranks(qualities, at) -> np.ndarray:
    """quality_ranks(qualities)[at], ranking only the entries at `at`."""
    q = np.asarray(qualities, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("qualities must be a non-empty 1-D vector")
    ordered, v = np.sort(q), q[at]          # NaN last, as searchsorted sees it
    rated = q.size - np.count_nonzero(np.isnan(ordered))
    left, right = (np.searchsorted(ordered, v, s) for s in ("left", "right"))
    ranks = (rated - right) + (right - left + 1) / 2.0
    ranks[np.isnan(v)] = rated + (q.size - rated + 1) / 2.0
    return ranks


def ranking_score(qualities: np.ndarray, benchmark: BenchmarkSet) -> RankingScore:
    """Mean normalized midrank of the benchmark items; in (0, 1]."""
    q, idx = np.asarray(qualities, dtype=np.float64), benchmark.sorted_indices()
    if idx[-1] >= q.size:
        raise ValueError("benchmark index out of range")
    value = float(_midranks(q, idx).mean() / q.size)
    return RankingScore(value=value, benchmark_size=benchmark.size)


def reputation_error_correlation(
    reputations: np.ndarray, true_errors: np.ndarray
) -> Correlation:
    """Pearson correlation between reputations and true error magnitudes.

    A constant input vector makes the coefficient undefined; that case
    returns 0 with the degenerate flag set instead of raising, so sweeps
    over algorithms with flat reputations (e.g. plain mean) keep running.
    """
    r = np.asarray(reputations, dtype=np.float64)
    e = np.asarray(true_errors, dtype=np.float64)
    if r.shape != e.shape or r.ndim != 1:
        raise ValueError("vectors must be 1-D of equal length")
    if r.size < 2:
        raise ValueError("need at least 2 points")
    if r.max() == r.min() or e.max() == e.min():
        return Correlation(0.0, True)
    dr = r - r.mean()
    de = e - e.mean()
    den = float(np.sqrt(np.sum(dr * dr) * np.sum(de * de)))
    if den == 0.0:
        return Correlation(0.0, True)
    value = float(np.clip(np.sum(dr * de) / den, -1.0, 1.0))
    return Correlation(value, False)


def top_fraction_benchmark(truth, fraction: float) -> BenchmarkSet:
    """Benchmark of the ceil(fraction * |O|) items with the largest
    intrinsic quality. Threshold ties break toward the smaller item index.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction:g} outside (0, 1]")
    q = np.asarray(truth.intrinsic_quality, dtype=np.float64)
    # the -1e-9 nudge absorbs float fuzz in fraction * M (e.g. 0.05 * 4000)
    n = int(np.ceil(fraction * q.size - 1e-9))
    n = max(1, min(n, q.size))
    order = np.argsort(-q, kind="stable")
    return BenchmarkSet(frozenset(int(i) for i in order[:n]))
