"""BAR (Jin et al., CCGrid 2011) -- related-work comparator.

"In BAR, the authors introduce a function that calculates completion
time with respect to data locality.  Their algorithm comprises two
phases: at first, they attempt to assign all the tasks so they are
entirely local, only to iteratively produce alternative execution
scenarios which reduce completion time on account of the locality."
(Section 3)

Adaptation to this engine (BAR's original setting is slot-based
MapReduce over HDFS block locations):

* **Phase 1 (locality-first)**: every job goes to a worker that already
  holds its repository (per the master's block-location view -- warm
  caches from previous iterations); jobs with no holder go to the
  estimated-earliest-finishing worker.
* **Phase 2 (balance-adjustment)**: while it reduces the estimated
  makespan, move one job from the most-loaded worker to the
  least-loaded one, *re-pricing it as remote* (download + scan instead
  of scan only) -- exactly BAR's "reduce completion time on account of
  the locality".

Completion-time estimates use each worker's nominal speeds, which the
runtime injects as ``speed_view`` alongside the ``cache_view`` --
centralized schedulers get to know the fleet, that is their one
advantage.  Like Spark, BAR plans upfront and never reacts to clones
made during the run; dynamically spawned jobs are priced and placed on
the estimated-earliest-finishing worker at arrival.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fleet import HolderMatrix, LoadTable, argmax_value_rank, argmin_value_rank, name_ranks
from repro.schedulers.base import PassiveWorkerPolicy, SchedulerPolicy, UpfrontPlannerPolicy
from repro.workload.job import Job


class BARMasterPolicy(UpfrontPlannerPolicy):
    """Two-phase locality-then-balance upfront allocation.

    The load table holds each worker's estimated committed load in
    seconds."""

    name = "bar"

    def __init__(self, max_adjustments: Optional[int] = None) -> None:
        super().__init__()
        if max_adjustments is not None and max_adjustments < 0:
            raise ValueError("max_adjustments must be non-negative")
        self.max_adjustments = max_adjustments
        self._load = LoadTable()
        #: Phase-2 moves actually performed (diagnostics/tests).
        self.adjustments = 0

    # -- cost model -----------------------------------------------------------

    def _cost(self, job: Job, worker: str, local: bool) -> float:
        """Estimated cost of ``job`` on ``worker`` (BAR's completion-time
        function, instantiated with this workload's natural formulas)."""
        network, rw, cpu, latency = self.speed_view[worker]
        cost = job.base_compute_s / cpu + job.size_mb / rw
        if not local and job.size_mb > 0:
            cost += latency + job.size_mb / network
        return cost

    def _is_local(self, job: Job, worker: str) -> bool:
        return job.repo_id is None or self._cached(job, worker)

    # -- planning ----------------------------------------------------------------

    def on_upfront_jobs(self, jobs: list[Job]) -> None:
        """Plan the whole known job set, both phases, over the load plane.

        The load cells see one scalar ``+=``/``-=`` per placement or
        move, phase-1 picks use the (load, name) rank argmin, phase 2
        prices all candidates of one move with element-wise vector ops
        in ``_cost``'s operation order, and the accept scan stays a
        sequential Python loop so the first-improvement-within-epsilon
        semantics hold (``tests/reference_planners.py`` is the scalar
        statement of the same rules, and the oracle).
        """
        workers = list(self.master.worker_names)
        self._ensure_views(workers)
        self._load.reset(dict.fromkeys(workers, 0.0))
        loads = self._load.values
        ranks = name_ranks(workers)
        speeds = np.array([self.speed_view[name] for name in workers])
        network, rw, cpu, latency = speeds.T
        matrix = HolderMatrix(workers, self.cache_view)
        cols = matrix.job_cols(jobs)
        sizes = np.fromiter((job.size_mb for job in jobs), np.float64, len(jobs))
        computes = np.fromiter(
            (job.base_compute_s for job in jobs), np.float64, len(jobs)
        )
        placements: dict[str, str] = {}
        placed = np.empty(len(jobs), dtype=np.intp)

        # Phase 1: entirely-local assignment where possible.
        for index, job in enumerate(jobs):
            local = matrix.holders(cols[index])
            slot = argmin_value_rank(loads, ranks, local)
            if slot < 0:
                slot = argmin_value_rank(loads, ranks)
            worker = workers[slot]
            placements[job.job_id] = worker
            loads[slot] += self._cost(job, worker, bool(local[slot]))
            placed[index] = slot

        # Phase 2: trade locality for balance while the makespan improves.
        moves = 0
        budget = (
            self.max_adjustments if self.max_adjustments is not None else len(jobs) * 4
        )
        while moves < budget:
            slow = argmax_value_rank(loads, ranks)
            fast = argmin_value_rank(loads, ranks)
            if slow == fast:
                break
            # np.nonzero yields candidates in ascending job order, the
            # order the placements were made in.
            candidates = np.nonzero(placed == slow)[0]
            best_at = -1
            best_makespan = loads[slow]
            if candidates.size:
                csize = sizes[candidates]
                ccompute = computes[candidates]
                ccols = cols[candidates]
                out_cost = ccompute / cpu[slow] + csize / rw[slow]
                remote = ~matrix.local_for_row(slow, ccols) & (csize > 0)
                out_cost[remote] += latency[slow] + csize[remote] / network[slow]
                in_cost = ccompute / cpu[fast] + csize / rw[fast]
                remote = ~matrix.local_for_row(fast, ccols) & (csize > 0)
                in_cost[remote] += latency[fast] + csize[remote] / network[fast]
                makespans = np.maximum(loads[slow] - out_cost, loads[fast] + in_cost)
                for at in range(candidates.size):
                    if makespans[at] < best_makespan - 1e-12:
                        best_makespan = makespans[at]
                        best_at = at
            if best_at < 0:
                break
            chosen = int(candidates[best_at])
            placed[chosen] = fast
            placements[jobs[chosen].job_id] = workers[fast]
            loads[slow] -= out_cost[best_at]
            loads[fast] += in_cost[best_at]
            moves += 1
        self.adjustments = moves
        self._plan = placements

    def _ensure_views(self, workers: list[str]) -> None:
        missing = [name for name in workers if name not in self.speed_view]
        if missing:
            raise RuntimeError(
                f"BAR needs the runtime-injected speed_view; missing {missing}"
            )

    def _pick(self, job: Job) -> str:
        """Earliest estimated completion at arrival.  A table every
        worker has left is re-seeded from the active fleet first (so a
        worker joining it meanwhile was skipped, not admitted)."""
        if not self._load:
            workers = list(self.master.active_workers)
            self._ensure_views(workers)
            self._load.reset(dict.fromkeys(workers, 0.0))
        worker = self._load.argmin_name()
        self._load.add(worker, self._cost(job, worker, self._is_local(job, worker)))
        return worker

    def decision_snapshot(self, job: Job, worker: str) -> tuple:
        """Re-price the job on every known worker (read-only -- the same
        ``_cost`` formula the planner used) and rank by the estimated
        completion time ``load + cost``: loads, block view and speed
        view all move on, so the ranking is taken now."""
        scored = []
        for name in self._load.names:
            if name not in self.speed_view:
                continue
            local = self._is_local(job, name)
            load = float(self._load.get(name))
            scored.append((load + self._cost(job, name, local), name, local, load))
        scored.sort()
        return scored, self._is_local(job, worker), self._last_planned

    def decision_context(self, job: Job, worker: str, snapshot: tuple) -> tuple:
        """Ledger: the ranking by estimated completion time."""
        from repro.obs.ledger import CandidateScore

        scored, chosen_local, planned = snapshot
        candidates = tuple(
            CandidateScore(
                worker=name, score=estimate, local=local, detail=f"load={load:.3f}s"
            )
            for estimate, name, local, load in scored
        )
        runner_up = next(
            (name for _, name, _, _ in scored if name != worker), None
        )
        kind = "planned" if planned else "cost-min"
        reason = (
            "locality-first plan" if planned else "earliest estimated completion at arrival"
        )
        if chosen_local and job.repo_id:
            reason += f"; repo {job.repo_id} already on {worker}"
        return (kind, candidates, runner_up, reason)


def make_bar_policy(max_adjustments: Optional[int] = None) -> SchedulerPolicy:
    """Package the BAR scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="bar",
        master_factory=lambda: BARMasterPolicy(max_adjustments=max_adjustments),
        worker_factory=PassiveWorkerPolicy,
    )
