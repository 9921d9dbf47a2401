"""Critical-path attribution: where the makespan actually went.

The span tree (:mod:`repro.obs.spans`) shows each job's lifecycle; this
module answers the run-level question: which *chain* of jobs set the
makespan, and how does that chain's time split between scheduling,
contests, queueing, data transfer, compute and recovery.

Per-job tiling
--------------
A job's interval ``[submitted, finished]`` is tiled exactly by the
segments of its :class:`~repro.metrics.analysis.Lifecycle` (the one
reader of a job's trace events, which also feeds the span tree and the
attribution table):

* **schedule** segments, minus their overlap with the job's contest
  windows, which is **contest**;
* **queue** segments (assignment in flight, waiting in the worker FIFO);
* **run** segments, split into **transfer** (the merged download
  windows) and **execute** (the remainder);
* **recovery** segments (an orphaned attempt until its re-dispatch).

Because the segments are carved from one contiguous interval, the
category totals of a job sum to its latency *exactly* -- no clamping,
no double counting.

The whole-run chain
-------------------
Children are submitted at the instant their parent completes
(``Master._on_completed`` expands the pipeline before completing the
parent), so the critical chain is recovered backwards from the
last-completing job: the predecessor of a job submitted at time ``t``
is the job that completed at ``t``.  The gap from run start to the
chain's first submission is attributed to **arrival** (source-stream
pacing).  Chain categories therefore tile ``[start, start+makespan]``
exactly, which is what lets the run-diff explainer report per-category
deltas that sum to the true makespan difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.analysis import Lifecycle, lifecycles
from repro.metrics.trace import Trace

#: Attribution categories, in reporting order.
CATEGORIES = (
    "arrival",
    "schedule",
    "contest",
    "queue",
    "transfer",
    "execute",
    "recovery",
)

#: Time-equality tolerance when matching a child's submission to its
#: parent's completion (both are the same sim instant).
_TIE = 1e-9


@dataclass(frozen=True)
class JobBreakdown:
    """One job's latency, tiled into categories."""

    job_id: str
    submitted: float
    finished: float
    worker: Optional[str]
    #: category -> seconds; values sum to ``finished - submitted``.
    categories: dict

    @property
    def latency(self) -> float:
        return self.finished - self.submitted


@dataclass(frozen=True)
class CriticalPath:
    """The chain of jobs that set the makespan, with attribution."""

    #: Run start (time of the first trace event).
    start: float
    #: End of the chain minus :attr:`start`.
    makespan: float
    #: Job ids on the chain, in time order (first submitted first).
    chain: tuple[str, ...]
    #: category -> seconds over the whole chain (plus the arrival gap);
    #: sums to :attr:`makespan` exactly.
    categories: dict
    #: Per-chain-job breakdowns, same order as :attr:`chain`.
    breakdowns: tuple[JobBreakdown, ...]
    #: job_id -> seconds between the job's completion and the end of
    #: the run, for every completed job (0.0 for the chain's last job).
    slack: dict
    #: job_id -> :class:`JobBreakdown` of every completed job.
    jobs: dict


def _merge_windows(windows: list) -> list:
    """Merge possibly-overlapping (start, end) windows."""
    merged: list = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _overlap(lo: float, hi: float, windows: list) -> float:
    """Total overlap of [lo, hi] with merged ``windows``."""
    total = 0.0
    for wlo, whi in windows:
        total += max(0.0, min(hi, whi) - max(lo, wlo))
    return total


def tile(life: Lifecycle) -> dict:
    """Tile one lifecycle's segments into categories (all but arrival).

    The values sum to ``life.end - life.submitted``: schedule segments
    split into **contest** (the merged contest windows) and **schedule**
    (the rest), run segments into **transfer** (the merged download
    windows) and **execute** (the rest).
    """
    contests = _merge_windows([(w.start, w.end) for w in life.contests if w.end is not None])
    downloads = _merge_windows([(w.start, w.end) for w in life.downloads])
    categories = {name: 0.0 for name in CATEGORIES if name != "arrival"}
    for segment in life.segments:
        span = segment.end - segment.start
        if segment.category == "schedule":
            contest_s = _overlap(segment.start, segment.end, contests)
            categories["contest"] += contest_s
            categories["schedule"] += span - contest_s
        elif segment.category == "run":
            transfer_s = _overlap(segment.start, segment.end, downloads)
            categories["transfer"] += transfer_s
            categories["execute"] += span - transfer_s
        else:
            categories[segment.category] += span
    return categories


def _breakdown(life: Lifecycle) -> JobBreakdown:
    worker = life.segments[-1].worker  # the last attempt's
    return JobBreakdown(life.job_id, life.submitted, life.end, worker, tile(life))


def job_breakdown(trace: Trace, job_id: str) -> Optional[JobBreakdown]:
    """Tile one job's ``[submitted, finished]`` into categories.

    Returns ``None`` when the job never reached a terminal event
    (``completed`` or ``failed``) or was never submitted.
    """
    life = lifecycles(trace).get(job_id)
    if life is None or life.submitted is None or life.terminal is None:
        return None
    return _breakdown(life)


def critical_path(trace: Trace) -> Optional[CriticalPath]:
    """Recover the makespan-setting chain and attribute its time.

    Returns ``None`` for a trace with no completed job.
    """
    if not trace.events:
        return None
    start = trace.events[0].time
    jobs = {
        life.job_id: _breakdown(life)
        for life in lifecycles(trace).values()
        if life.completed and life.submitted is not None
    }
    if not jobs:
        return None

    # The chain's tail: the last completion (ties broken by job id so
    # the fixture is stable across dict-order accidents); each link's
    # predecessor is the first job, in the same order, that completed
    # at its submission instant.
    by_finish = sorted(jobs.values(), key=lambda job: (job.finished, job.job_id))
    end = by_finish[-1].finished
    chain = [by_finish[-1]]
    while True:
        submitted = chain[-1].submitted
        earlier = [j for j in by_finish if abs(j.finished - submitted) <= _TIE and j not in chain]
        if not earlier:
            break
        chain.append(earlier[0])
    chain.reverse()

    categories = {name: 0.0 for name in CATEGORIES}
    categories["arrival"] = chain[0].submitted - start
    for breakdown in chain:
        for name, value in breakdown.categories.items():
            categories[name] += value

    return CriticalPath(
        start=start,
        makespan=end - start,
        chain=tuple(job.job_id for job in chain),
        categories=categories,
        breakdowns=tuple(chain),
        slack={job_id: end - job.finished for job_id, job in jobs.items()},
        jobs=jobs,
    )


def render_critical_path(path: CriticalPath, width: int = 34) -> str:
    """ASCII summary: category bars plus the chain itself."""
    lines = [
        f"critical path ({len(path.chain)} jobs, "
        f"makespan {path.makespan:.1f} s)"
    ]
    top = max(path.categories.values(), default=0.0)
    for name in CATEGORIES:
        value = path.categories.get(name, 0.0)
        bar = ""
        if top > 0 and value > 0:
            bar = "#" * max(1, round(value / top * width))
        share = value / path.makespan if path.makespan > 0 else 0.0
        lines.append(f"{name:<10} {value:>10.2f} s  {share:>6.1%}  {bar}")
    lines.append("chain:")
    for breakdown in path.breakdowns:
        dominant = max(
            breakdown.categories, key=lambda name: breakdown.categories[name]
        )
        where = f" on {breakdown.worker}" if breakdown.worker else ""
        lines.append(
            f"  {breakdown.job_id:<14} {breakdown.submitted:>8.2f} -> "
            f"{breakdown.finished:>8.2f} s{where}  "
            f"(mostly {dominant}: {breakdown.categories[dominant]:.2f} s)"
        )
    return "\n".join(lines)


__all__ = [
    "CATEGORIES",
    "CriticalPath",
    "JobBreakdown",
    "critical_path",
    "job_breakdown",
    "render_critical_path",
    "tile",
]
