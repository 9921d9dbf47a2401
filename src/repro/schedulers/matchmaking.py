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

DEFAULT_HEARTBEAT_S = 1.0


class MatchmakingMasterPolicy(HoldingsPullMasterPolicy):
    """Locality-filtered offers on first attempt, forced on the second."""

    name = "matchmaking"
    local_kind = "local-pull"
    forced_reason = "second pull attempt: bound to accept without local data"

    def _park(self, worker: str) -> None:
        # A retried pull (the loss-timeout path) replaces the stale one
        # instead of queueing a duplicate offer claim.
        self._unpark(worker)
        super()._park(worker)

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
