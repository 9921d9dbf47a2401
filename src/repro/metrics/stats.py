"""Statistics over replicated runs: spreads, confidence intervals, tests.

The paper reports bare means over three iterations; a reproduction
should also say how stable its comparisons are across seeds.  This
module provides:

* :func:`mean_std` -- sample mean and (ddof=1) standard deviation,
* :func:`bootstrap_ci` -- percentile bootstrap confidence interval for
  the mean, seeded and vectorised,
* :func:`bootstrap_ratio_ci` -- CI for a ratio of means (the "bidding
  is 1.4x faster" statements),
* :func:`rank_sum_pvalue` -- Wilcoxon rank-sum (Mann-Whitney U) via
  scipy (the ``stats`` extra, imported on first use: nothing else in
  the package needs it), for "is the difference more than seed noise?",
* :func:`compare` -- the one-call summary the harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1; 0.0 for n==1)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("empty sample")
    if array.size == 1:
        return float(array[0]), 0.0
    return float(array.mean()), float(array.std(ddof=1))


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("empty sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if array.size == 1:
        return float(array[0]), float(array[0])
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, array.size, size=(n_resamples, array.size))
    means = array[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.percentile(means, 100 * alpha)),
        float(np.percentile(means, 100 * (1 - alpha))),
    )


def bootstrap_ratio_ci(
    numerator: Sequence[float],
    denominator: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap CI for ``mean(numerator) / mean(denominator)``.

    The two samples are resampled independently (different seeds give
    independent replicate sets).
    """
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.size == 0 or den.size == 0:
        raise ValueError("empty sample")
    if np.any(den == 0):
        raise ValueError("denominator sample contains zero")
    rng = np.random.default_rng(seed)
    num_means = num[rng.integers(0, num.size, size=(n_resamples, num.size))].mean(axis=1)
    den_means = den[rng.integers(0, den.size, size=(n_resamples, den.size))].mean(axis=1)
    ratios = num_means / den_means
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.percentile(ratios, 100 * alpha)),
        float(np.percentile(ratios, 100 * (1 - alpha))),
    )


def rank_sum_pvalue(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney U p-value (distribution-free)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    from scipy.stats import mannwhitneyu

    result = mannwhitneyu(a, b, alternative="two-sided")
    return float(result.pvalue)


@dataclass(frozen=True)
class Comparison:
    """Summary of candidate-vs-baseline on one metric (lower = better)."""

    baseline_mean: float
    baseline_std: float
    candidate_mean: float
    candidate_std: float
    speedup: float
    speedup_ci: tuple[float, float]
    pvalue: float

    @property
    def significant(self) -> bool:
        """Whether the difference clears p < 0.05 *and* the speedup CI
        excludes 1.0 (both directions of evidence agree)."""
        lo, hi = self.speedup_ci
        return self.pvalue < 0.05 and (lo > 1.0 or hi < 1.0)


def compare(
    baseline: Sequence[float],
    candidate: Sequence[float],
    seed: int = 0,
) -> Comparison:
    """Full comparison of two replicated samples of a lower-is-better
    metric; ``speedup`` is baseline/candidate (>1 means candidate wins)."""
    baseline_mean, baseline_std = mean_std(baseline)
    candidate_mean, candidate_std = mean_std(candidate)
    if candidate_mean <= 0:
        raise ValueError("candidate mean must be positive")
    return Comparison(
        baseline_mean=baseline_mean,
        baseline_std=baseline_std,
        candidate_mean=candidate_mean,
        candidate_std=candidate_std,
        speedup=baseline_mean / candidate_mean,
        speedup_ci=bootstrap_ratio_ci(baseline, candidate, seed=seed),
        pvalue=rank_sum_pvalue(baseline, candidate) if min(len(baseline), len(candidate)) > 1 else 1.0,
    )
