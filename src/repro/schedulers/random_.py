"""Control policies: random and round-robin push assignment.

Neither considers locality nor worker speed; they bound the benefit any
locality-aware policy can claim (ablation A3 in DESIGN.md).  Random
uses the master's run RNG, so results are reproducible per seed.
"""

from __future__ import annotations

from itertools import cycle
from typing import Iterator, Optional

from repro.schedulers.base import (
    MasterPolicy,
    PassiveWorkerPolicy,
    SchedulerPolicy,
)
from repro.workload.job import Job


class RandomMasterPolicy(MasterPolicy):
    """Assign each arriving job to a uniformly random worker."""

    name = "random"

    def on_job(self, job: Job) -> None:
        self.master.assign(job, self.master.arbitrary_worker())

    def decision_snapshot(self, job: Job, worker: str) -> int:
        return len(self.master.active_workers)

    def decision_context(self, job: Job, worker: str, snapshot: int) -> tuple:
        """Ledger: nothing was weighed; the pick was uniform."""
        from repro.obs.ledger import CandidateScore

        return (
            "random",
            (CandidateScore(worker=worker),),
            None,
            f"uniform pick over {snapshot} active workers",
        )


class RoundRobinMasterPolicy(MasterPolicy):
    """Assign arriving jobs cyclically across the fleet."""

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._cycle: Optional[Iterator[str]] = None

    def start(self) -> None:
        self._rebuild()

    def _rebuild(self) -> None:
        # ``cycle`` snapshots its iterable, so fleet changes (service-layer
        # scale-up/down) must rebuild it over the current active set.
        self._cycle = cycle(list(self.master.active_workers))

    def on_worker_joined(self, worker: str) -> None:
        self._rebuild()

    def on_worker_retired(self, worker: str) -> None:
        self._rebuild()

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        self._rebuild()

    def on_job(self, job: Job) -> None:
        assert self._cycle is not None, "policy not started"
        self.master.assign(job, next(self._cycle))

    def decision_snapshot(self, job: Job, worker: str) -> int:
        return len(self.master.active_workers)

    def decision_context(self, job: Job, worker: str, snapshot: int) -> tuple:
        """Ledger: the cycle position decided, not a comparison."""
        from repro.obs.ledger import CandidateScore

        return (
            "round-robin",
            (CandidateScore(worker=worker),),
            None,
            f"next in rotation over {snapshot} active workers",
        )


def make_random_policy() -> SchedulerPolicy:
    """Package the random scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="random",
        master_factory=RandomMasterPolicy,
        worker_factory=PassiveWorkerPolicy,
    )


def make_round_robin_policy() -> SchedulerPolicy:
    """Package the round-robin scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="round-robin",
        master_factory=RoundRobinMasterPolicy,
        worker_factory=PassiveWorkerPolicy,
    )
