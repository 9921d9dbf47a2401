"""Run summaries and comparative statistics.

A :class:`RunResult` is the frozen outcome of one workflow run --
the three paper metrics plus diagnostics -- labelled with the
(scheduler, workload, profile, seed, iteration) cell it belongs to.
:func:`speedup` and :func:`percent_change` compute the comparative
statistics quoted throughout Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence


@dataclass(frozen=True)
class RunResult:
    """The frozen summary of one workflow run."""

    scheduler: str
    workload: str
    profile: str
    seed: int
    iteration: int
    makespan_s: float
    cache_misses: int
    cache_hits: int
    data_load_mb: float
    jobs_completed: int
    contest_seconds: float = 0.0
    contests_fallback: int = 0
    rejections: int = 0
    per_worker_mb: Mapping[str, float] = field(default_factory=dict)
    per_worker_jobs: Mapping[str, int] = field(default_factory=dict)
    #: Job ids declared permanently failed (empty in healthy runs).
    failed_jobs: tuple = ()
    crashes: int = 0
    redispatches: int = 0
    duplicates_suppressed: int = 0

    def __post_init__(self) -> None:
        # JSON deserialisation hands back a list; normalise to a tuple.
        object.__setattr__(self, "failed_jobs", tuple(self.failed_jobs))
        if self.makespan_s < 0:
            raise ValueError("makespan must be non-negative")
        if self.cache_misses < 0 or self.cache_hits < 0:
            raise ValueError("cache counters must be non-negative")
        if self.data_load_mb < 0:
            raise ValueError("data load must be non-negative")

    @property
    def cell(self) -> tuple[str, str, str]:
        """The (scheduler, workload, profile) grouping key."""
        return (self.scheduler, self.workload, self.profile)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (never silently 0)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def speedup(baseline_s: float, candidate_s: float) -> float:
    """How many times faster the candidate is (paper's "3.57x faster")."""
    if candidate_s <= 0:
        raise ValueError("candidate time must be positive")
    return baseline_s / candidate_s


def percent_change(baseline: float, candidate: float) -> float:
    """Relative reduction of ``candidate`` vs ``baseline``, in percent.

    Positive values mean the candidate is lower/better (the paper's
    "49% fewer cache misses", "45.3% reduction in data load").
    """
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return 100.0 * (baseline - candidate) / baseline


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table (the harness's output format)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
