"""A Spark-style centralized scheduler -- the Figure 2 comparator.

Section 4 contrasts Crossflow with Apache Spark along three axes, all
modelled here:

1. "all task allocation occurs in advance and without considering the
   resources that become local during execution" -- the policy plans
   the whole known job set upfront and pushes assignments immediately;
   nothing reacts to caches populated *during* the run;
2. "the master produces all assignments and considers all workers
   equal" -- planning balances job *counts*, never speeds, so slow
   workers receive an equal share (Figure 2's straggler effect);
3. Spark's five locality levels with a wait-and-degrade rule [2] --
   approximated at planning time: a job whose repository is already
   cached on some worker (per the driver's block-location view, i.e.
   warm caches from a previous iteration) is preferred onto that worker
   (``NODE_LOCAL``), unless that worker's plan is already
   ``locality_wait_slots`` jobs above the fair share, at which point
   the job degrades to ``ANY`` and goes to the least-loaded worker.
   This reproduces the *effect* of Spark's locality-wait timeout (bounded
   waiting for a local slot) in a plan-time form, since upfront
   allocation has no queue to wait in.

Dynamically spawned jobs (pipeline children, unknown at planning time)
are assigned on arrival by the same balanced, locality-blind rule --
Spark would launch them as a new stage with the same driver behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.fleet import HolderMatrix, LoadTable, argmin_value_rank, name_ranks
from repro.schedulers.base import PassiveWorkerPolicy, SchedulerPolicy, UpfrontPlannerPolicy
from repro.workload.job import Job


class SparkMasterPolicy(UpfrontPlannerPolicy):
    """Centralized upfront allocation with plan-time locality preference.

    The load table counts the jobs planned onto each executor, in the
    driver's registration order."""

    name = "spark"

    def __init__(self, locality_wait_slots: int = 2, use_locality: bool = True) -> None:
        super().__init__()
        if locality_wait_slots < 0:
            raise ValueError("locality_wait_slots must be non-negative")
        self.locality_wait_slots = locality_wait_slots
        self.use_locality = use_locality

    def _executors(self) -> LoadTable:
        """The driver's executor table, in an order shuffled per run.

        Real executors register with the driver in a timing-dependent
        order, so re-running the same application does not reproduce the
        same partition->executor mapping.  Without this, a re-run would
        accidentally inherit perfect data locality from its own previous
        assignment -- something Spark (which cannot see the on-disk clone
        caches) never gets.
        """
        if self._load is None:
            order = list(self.master.active_workers)
            self.master.rng.shuffle(order)
            self._load = LoadTable(dtype=np.int64)
            self._load.reset(dict.fromkeys(order, 0))
        return self._load

    # -- planning ------------------------------------------------------------

    def on_upfront_jobs(self, jobs: list[Job]) -> None:
        """Compute the full assignment before the run starts.

        Counts live in an int64 plane aligned with the executor order;
        the holder pick is a (count, name) rank argmin over the masked
        holder set (``NODE_LOCAL`` if a holder has plan room), the
        ``ANY`` fallback ``np.argmin``'s first-occurrence (=
        registration-order) tie-break: balanced by *count* only -- all
        workers are equal to Spark -- and deterministic per run yet
        varying across runs (``tests/reference_planners.py`` is the
        scalar statement of the same rules, and the oracle).
        """
        table = self._executors()
        workers, counts = table.names, table.values
        cap = len(jobs) / len(workers) + self.locality_wait_slots
        ranks = name_ranks(workers)
        matrix = HolderMatrix(workers, self.cache_view) if self.use_locality else None
        for job in jobs:
            slot = -1
            if matrix is not None and job.repo_id is not None:
                holders = matrix.holders(matrix.job_col(job.repo_id)) & (counts < cap)
                slot = argmin_value_rank(counts, ranks, holders)
            if slot < 0:
                slot = int(np.argmin(counts))
            self._plan[job.job_id] = workers[slot]
            counts[slot] += 1

    def on_worker_joined(self, worker: str) -> None:
        """As every planner's, except that a table every executor has
        left takes the joiner at 0: the driver builds its table once per
        run and never re-seeds it."""
        table = self._load
        if table is not None:
            table.ensure(worker, table.max_value() if table else 0)

    def _pick(self, job: Job) -> str:
        """A dynamically spawned job: balanced, locality-blind."""
        table = self._executors()
        worker = table.argmin_first()
        table.add(worker, 1)
        return worker

    def decision_snapshot(self, job: Job, worker: str) -> tuple:
        """The executor order with its planned counts, who holds the
        job's repo in the driver's block view (restarts rewrite it), and
        whether the upfront plan decided."""
        table = self._load
        if table:
            workers, counts = list(table.names), table.values[: len(table)].tolist()
        else:
            workers = list(self.master.worker_names)
            counts = [0] * len(workers)
        holders = [self._cached(job, name) for name in workers]
        return workers, counts, holders, self._cached(job, worker), self._last_planned

    def decision_context(self, job: Job, worker: str, snapshot: tuple) -> tuple:
        """Ledger: planned (NODE_LOCAL or degraded-to-ANY) vs dynamic."""
        from repro.obs.ledger import CandidateScore

        workers, counts, holders, chosen_local, planned = snapshot
        candidates = tuple(
            CandidateScore(worker=name, score=float(count), local=local)
            for name, count, local in zip(workers, counts, holders)
        )
        others = [
            (count, index, name)
            for index, (name, count) in enumerate(zip(workers, counts))
            if name != worker
        ]
        runner_up = min(others)[2] if others else None
        if not planned:
            kind = "dynamic"
            reason = "dynamically spawned job: least-loaded executor, locality-blind"
        elif chosen_local:
            kind = "planned-local"
            reason = (
                f"plan-time NODE_LOCAL: repo {job.repo_id} in the driver's block view of {worker}"
            )
        else:
            kind = "planned-any"
            reason = "plan-time ANY: no holder with plan room; balanced by count"
        return (kind, candidates, runner_up, reason)


def make_spark_policy(
    locality_wait_slots: int = 2, use_locality: bool = True
) -> SchedulerPolicy:
    """Package the Spark-style scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="spark",
        master_factory=lambda: SparkMasterPolicy(
            locality_wait_slots=locality_wait_slots, use_locality=use_locality
        ),
        worker_factory=PassiveWorkerPolicy,
    )
