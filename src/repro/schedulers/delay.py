"""Delay scheduling (Zaharia et al., EuroSys 2010) -- related-work comparator.

"Some approaches attempt to delay job assignment until an appropriate
node is available.  If that node is unavailable, the allocation will be
postponed, which can occur a fixed number of times." (Section 3)

Mapping to this engine: when an idle worker pulls, the master walks the
job queue in order; a job whose data is local to the puller is assigned
immediately, otherwise the job's *skip counter* increments.  A job
whose counter exceeds ``max_skips`` has waited long enough and is
assigned non-locally to the puller.  Workers always accept.

The master's locality knowledge comes from observed completions, as in
:mod:`repro.schedulers.matchmaking`.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.messages import NoWork
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pull import HoldingsPullMasterPolicy, PullWorkerPolicy
from repro.workload.job import Job

DEFAULT_MAX_SKIPS = 3
DEFAULT_HEARTBEAT_S = 1.0


class DelayMasterPolicy(HoldingsPullMasterPolicy):
    """Skip-counted locality waiting."""

    name = "delay"
    forced_kind = "skip-exhausted"

    def __init__(self, max_skips: int = DEFAULT_MAX_SKIPS) -> None:
        super().__init__()
        if max_skips < 0:
            raise ValueError("max_skips must be non-negative")
        self.max_skips = max_skips
        self.skips: dict[str, int] = {}
        # A non-local bind can only mean the skip budget ran out.
        self.forced_reason = f"skipped past max_skips={max_skips}; launched non-locally"

    def on_job(self, job: Job) -> None:
        self.skips.setdefault(job.job_id, 0)
        super().on_job(job)

    def _return(self, job: Job) -> None:
        super()._return(job)
        self.skips.setdefault(job.job_id, 0)

    def _answer(self, worker: str) -> None:
        """Walk the queue in order: offer the first job local to
        ``worker`` or out of skips; none such means ``NoWork``.

        The walk (and its skip accounting) is sequential -- the skip
        counters mutate as the scan advances, which no batched form can
        reproduce -- but the locality of every queued job is a single
        boolean gather over the queue's repo-column plane.
        """
        queue, skips = self.job_queue, self.skips
        mask = queue.local_mask(worker)
        for index in range(len(queue)):
            job = queue[index]
            if not mask[index]:
                skips[job.job_id] = skips.get(job.job_id, 0) + 1
                if skips[job.job_id] <= self.max_skips:
                    continue
                # Waited long enough: launch non-locally.
            queue.delete(index)
            skips.pop(job.job_id, None)
            self._offer(worker, job)
            return
        self.master.send_to_worker(worker, NoWork(worker))

    def export_state(self) -> list[Job]:
        self.skips.clear()
        return super().export_state()


class DelayWorkerPolicy(PullWorkerPolicy):
    """Pulls; always accepts (the *master* does the delaying)."""


def make_delay_policy(
    max_skips: int = DEFAULT_MAX_SKIPS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the delay scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="delay",
        master_factory=lambda: DelayMasterPolicy(max_skips=max_skips),
        worker_factory=lambda: DelayWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
