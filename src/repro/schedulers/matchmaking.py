"""Matchmaking (He, Lu & Swanson, 2011) -- related-work comparator.

"The Matchmaking technique for MapReduce ... avoids wasting time by
allowing nodes to request jobs rather than receive them.  Only when a
node becomes available will it try to pull a task for which it has data
locally.  The node will remain idle for a single heartbeat if no such
task is present.  On the second attempt, it is bound to accept a task
even if it does not have data locally." (Section 3)

Mapping to this engine:

* idle workers pull with an ``attempt`` counter that resets after every
  executed job;
* on attempt 1 the master offers only a *local* job for that worker --
  one whose repository the worker holds (the master tracks holdings
  from completions, standing in for the JobTracker's block map) or one
  with no data at all; with no local job the worker idles one heartbeat;
* on attempt >= 2 the master offers the queue head unconditionally and
  the worker is bound to accept.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.messages import NoWork
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pull import HoldingsPullMasterPolicy, PullWorkerPolicy
from repro.workload.job import Job

DEFAULT_HEARTBEAT_S = 1.0


class MatchmakingMasterPolicy(HoldingsPullMasterPolicy):
    """Locality-filtered offers on first attempt, forced on the second."""

    name = "matchmaking"

    def __init__(self) -> None:
        super().__init__()
        #: worker -> attempt counter of its latest pull.
        self._attempts: dict[str, int] = {}

    def on_job(self, job: Job) -> None:
        self.job_queue.append(job)
        self._serve()

    def _pulled(self, worker: str, attempt: int) -> None:
        if self._quiescing:
            # Swallow: the puller is about to be hot-swapped too and
            # its successor will re-pull.
            return
        self._attempts[worker] = attempt
        if self.job_queue:
            self._answer(worker)
        else:
            # A retried pull (the loss-timeout path) replaces the
            # stale one instead of queueing a duplicate offer claim.
            self._unpark(worker)
            self._park(worker)

    def decision_snapshot(self, job: Job, worker: str) -> bool:
        return self._local_for(worker, job)

    def decision_context(self, job: Job, worker: str, local: bool) -> tuple:
        """Ledger: locality per the holdings view distinguishes a
        first-attempt local match from a second-attempt forced bind."""
        from repro.obs.ledger import CandidateScore

        candidates = (CandidateScore(worker=worker, local=local),)
        if local:
            reason = (
                f"repo {job.repo_id} in the puller's holdings"
                if job.repo_id
                else "no data needed; any puller matches"
            )
            return ("local-pull", candidates, None, reason)
        return (
            "forced",
            candidates,
            None,
            "second pull attempt: bound to accept without local data",
        )

    def _answer(self, worker: str) -> None:
        """Offer a job per the attempt rule; with work but none local on
        attempt 1 the worker idles one heartbeat (``NoWork``)."""
        if self._attempts.get(worker, 1) > 1:
            self._offer(worker, self.job_queue.popleft())
            return
        # First-local scan: one boolean gather over the queue's
        # repo-column plane.
        index = self.job_queue.first_local(worker)
        if index >= 0:
            self._offer(worker, self.job_queue.delete(index))
            return
        self.master.send_to_worker(worker, NoWork(worker))


class MatchmakingWorkerPolicy(PullWorkerPolicy):
    """Pulls with the heartbeat/attempt discipline; accepts all offers."""

    counts_attempts = True


def make_matchmaking_policy(
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the Matchmaking scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="matchmaking",
        master_factory=MatchmakingMasterPolicy,
        worker_factory=lambda: MatchmakingWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
