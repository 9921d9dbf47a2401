"""Crossflow's Baseline scheduler (Section 4) -- the paper's comparator.

"Crossflow currently deals with scheduling by enabling worker nodes to
pull jobs from the master.  Before being executed, each pulled job is
internally evaluated by the worker to check if it conforms to that
worker's acceptance criteria.  If it does, the job is processed,
otherwise, it is returned to the master so another worker can consider
it. ... workers are required to keep track of any jobs they have
previously declined.  This enables them to accept such jobs upon a
second attempt."

Mechanics reproduced here:

* only *idle* workers pull (a worker executes one job at a time);
* the master holds unallocated jobs FIFO and parks pulls that arrive
  while the queue is empty, answering them as soon as work exists
  (a long-poll -- pull frequency therefore never limits throughput);
* the acceptance criterion for the MSR workload is data locality:
  accept iff the job has no data, the repository is cached locally, or
  this worker has declined the job before (the second-attempt rule);
* a rejected job is "returned to the master so another worker can
  consider it".  Where it re-enters the queue is a real Crossflow
  implementation detail with large behavioural consequences, so it is
  configurable:

  - ``requeue="front"`` (default) models JMS redelivery: the rejected
    message is re-offered immediately.  A lone idle worker therefore
    sees the job again on its very next pull and is forced to accept --
    reproducing the paper's observation that "there will be redundant
    clones of the same repository if a node is offered a job it has
    previously seen, even though some other node has that resource
    locally but is currently occupied";
  - ``requeue="back"`` lets the worker cycle through the whole queue
    before the second-attempt rule bites, which gives the Baseline much
    stronger emergent locality (ablated in A3).

The documented consequences -- every job is declined by every observer
on a cold cache, and nothing steers big jobs away from slow workers --
emerge from these rules, which is precisely what the Bidding Scheduler
is built to fix.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pull import PullMasterPolicy, PullWorkerPolicy
from repro.workload.job import Job


class BaselineMasterPolicy(PullMasterPolicy):
    """FIFO job queue + long-polled pulls + requeue on rejection."""

    name = "baseline"
    workers_decline = True

    def __init__(self, requeue: str = "front") -> None:
        super().__init__()
        if requeue not in ("front", "back"):
            raise ValueError(f"requeue must be 'front' or 'back', got {requeue!r}")
        self.requeue = requeue
        #: job_id -> number of times offered (diagnostics).
        self.offer_counts: dict[str, int] = {}

    def _pulled(self, worker: str, attempt: int) -> None:
        self._park(worker)
        self._serve()

    def _rejected(self, job: Job) -> None:
        if self.requeue == "front":
            self.job_queue.appendleft(job)
        else:
            self.job_queue.append(job)

    def _answer(self, worker: str) -> None:
        job = self.job_queue.popleft()
        prior = self.offer_counts.get(job.job_id, 0)
        self.offer_counts[job.job_id] = prior + 1
        self._offer(worker, job, prior_offers=prior)

    def decision_snapshot(self, job: Job, worker: str) -> tuple:
        """The offers so far, and whether the acceptor holds the repo now."""
        local = None
        if job.repo_id is not None:
            local = self.master.fleet.candidate_snapshot([worker], job.repo_id)[0][3]
        return self.offer_counts.get(job.job_id, 0), local

    def decision_context(self, job: Job, worker: str, snapshot: tuple) -> tuple:
        """Ledger: the decision was the *worker's* (pull + accept); the
        master only reports how many offers it took to land."""
        from repro.obs.ledger import CandidateScore

        offers, local = snapshot
        candidates = (CandidateScore(worker=worker, local=local),)
        reason = f"pulled and accepted after {offers} offer(s)"
        if local:
            reason += f"; repo {job.repo_id} cached locally"
        elif local is False:
            reason += "; no local copy (second-attempt rule forced it)"
        return ("pull-accept", candidates, None, reason)


class BaselineWorkerPolicy(PullWorkerPolicy):
    """The opinionated node: locality acceptance + second-attempt rule."""

    def __init__(
        self, heartbeat_s: float = 1.0, response_timeout_s: Optional[float] = None
    ) -> None:
        super().__init__(heartbeat_s, response_timeout_s)
        #: Job ids this worker has declined (the second-attempt memory).
        self.declined: set[str] = set()

    def will_decline(self, job: Job) -> bool:
        """The acceptance criterion (application-specific in Crossflow;
        data locality for the MSR workload, per Section 4): decline a
        job whose data is not here -- once."""
        return (
            job.is_data_bound
            and not self.worker.cache.peek(job.repo_id)
            and job.job_id not in self.declined
        )

    def decline(self, job: Job) -> None:
        self.declined.add(job.job_id)

    def accepts(self, job: Job) -> bool:
        """A declined job is remembered, and accepted when it comes back."""
        if self.will_decline(job):
            self.decline(job)
            return False
        return True


def make_baseline_policy(
    heartbeat_s: float = 1.0,
    requeue: str = "front",
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the Baseline scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="baseline",
        master_factory=lambda: BaselineMasterPolicy(requeue=requeue),
        worker_factory=lambda: BaselineWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
