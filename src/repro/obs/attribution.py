"""Where did the sim time go: per-component attribution.

Sums every job's critical-path tiling (:func:`repro.obs.critical_path.tile`)
into a flamegraph-style table answering the question the paper's
Section 6.3/6.4 analysis keeps asking by hand: for the jobs in this run,
how much time was spent scheduling (submission -> binding, split out
into contest time), waiting in worker queues, transferring data, and
actually computing -- and how busy was the fleet overall.

All figures are *job-seconds* (summed across jobs), and each parent is
the sum of its children like a flamegraph: ``job = schedule + queued +
execute + recovery``, ``schedule`` contains ``contest``, and ``execute
= transfer + compute``, where transfer is download time inside a run
(a prefetch that finished before the run counts for nothing) and
compute is the rest of the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.metrics.analysis import lifecycles
from repro.metrics.trace import Trace
from repro.obs.critical_path import tile


@dataclass(frozen=True)
class AttributionRow:
    """One component line: totals across jobs plus the per-job mean."""

    component: str
    depth: int
    total_s: float
    count: int

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class Attribution:
    """The full breakdown for one run."""

    rows: tuple[AttributionRow, ...]
    jobs: int
    makespan: float
    fleet_busy_fraction: Optional[float]

    def row(self, component: str) -> Optional[AttributionRow]:
        for row in self.rows:
            if row.component == component:
                return row
        return None


#: (component, depth, tiling categories it sums, what it counts), in
#: rendering order.  ``job`` sums the latencies and counts the jobs.
_LAYOUT = (
    ("job", 0, (), "job"),
    ("schedule", 1, ("schedule", "contest"), "schedule"),
    ("contest", 2, ("contest",), "contest"),
    ("queued", 1, ("queue",), "queue"),
    ("execute", 1, ("transfer", "execute"), "run"),
    ("transfer", 2, ("transfer",), "transfer"),
    ("compute", 2, ("execute",), "run"),
    ("recovery", 1, ("recovery",), "recovery"),
)


def attribute(
    trace: Trace,
    makespan: Optional[float] = None,
    worker_count: Optional[int] = None,
) -> Attribution:
    """Sum every job's critical-path tiling into the component table."""
    lives = [life for life in lifecycles(trace).values() if life.submitted is not None]
    tiles = [tile(life) for life in lives]
    counts = Counter(segment.category for life in lives for segment in life.segments)
    counts["job"] = len(lives)
    counts["contest"] = sum(w.end is not None for life in lives for w in life.contests)
    counts["transfer"] = sum(len(life.downloads) for life in lives)
    totals = {"job": sum(life.end - life.submitted for life in lives)}
    for component, _depth, parts, _counted in _LAYOUT[1:]:
        totals[component] = sum(categories[part] for categories in tiles for part in parts)

    rows = tuple(
        AttributionRow(component, depth, totals[component], counts[counted])
        for component, depth, _parts, counted in _LAYOUT
        if counts[counted]
    )

    if makespan is None:
        makespan = trace.events[-1].time - trace.events[0].time if trace.events else 0.0
    busy: Optional[float] = None
    if worker_count and makespan > 0:
        busy = totals["execute"] / (worker_count * makespan)

    return Attribution(rows, len(lives), makespan, busy)


def render_attribution(attribution: Attribution, width: int = 34) -> str:
    """Render the table as indented text with proportional bars."""
    lines = [
        f"time attribution ({attribution.jobs} jobs, "
        f"makespan {attribution.makespan:.1f} s)"
    ]
    top = max((row.total_s for row in attribution.rows), default=0.0)
    for row in attribution.rows:
        indent = "  " * row.depth
        bar = ""
        if top > 0:
            bar = "#" * max(1, round(row.total_s / top * width)) if row.total_s else ""
        label = f"{indent}{row.component}"
        lines.append(
            f"{label:<18} {row.total_s:>10.1f} s  "
            f"x{row.count:<5d} mean {row.mean_s:>8.2f} s  {bar}"
        )
    if attribution.fleet_busy_fraction is not None:
        lines.append(f"fleet busy fraction: {attribution.fleet_busy_fraction:.1%}")
    return "\n".join(lines)


__all__ = ["Attribution", "AttributionRow", "attribute", "render_attribution"]
