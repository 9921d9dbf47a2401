"""Reference oracle: the scalar BAR and Spark planners, kept in tests only.

These are the two upfront planners as they ran before their state moved
onto :mod:`repro.fleet` planes: plain dicts, ``min``/``max`` scans with
tuple keys, one Python-float ``+=`` per placement.  They are slow and
obviously faithful to the rules in ``schedulers/bar.py`` and
``schedulers/spark.py``, which is their whole job:
``test_fleet_property.py`` demands the array planners reproduce them
exactly (plan, load/count cells to the bit, adjustments, streaming
picks) and ``benchmarks/test_bench_fleet.py`` times them as the
baseline of the planning-speedup gate.

The planning and dispatch code is moved here verbatim.  One rule added
since is mirrored, because it changes what a run does: a retired
(draining) worker leaves the load/count table (``on_worker_retired``).
One is deliberately *not*: the array Spark draws its executor order
from ``master.active_workers`` where this one reads ``worker_names``;
the two lists only differ when the order is first needed after fleet
churn, which the differential never does.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import MasterPolicy
from repro.workload.job import Job


class ReferenceBARMasterPolicy(MasterPolicy):
    """Two-phase locality-then-balance upfront allocation, over a dict."""

    name = "bar"
    requires_upfront = True

    def __init__(self, max_adjustments: Optional[int] = None) -> None:
        super().__init__()
        self.max_adjustments = max_adjustments
        self.cache_view: dict[str, set[str]] = {}
        self.speed_view: dict[str, tuple[float, float, float, float]] = {}
        self._plan: dict[str, str] = {}
        self._load: dict[str, float] = {}
        self.adjustments = 0

    def _cost(self, job: Job, worker: str, local: bool) -> float:
        network, rw, cpu, latency = self.speed_view[worker]
        cost = job.base_compute_s / cpu + job.size_mb / rw
        if not local and job.size_mb > 0:
            cost += latency + job.size_mb / network
        return cost

    def _is_local(self, job: Job, worker: str) -> bool:
        return job.repo_id is None or job.repo_id in self.cache_view.get(worker, ())

    def _earliest(self) -> str:
        return min(self._load, key=lambda name: (self._load[name], name))

    def on_upfront_jobs(self, jobs: list[Job]) -> None:
        workers = list(self.master.worker_names)
        self._load = {name: 0.0 for name in workers}
        placements: dict[str, str] = {}

        # Phase 1: entirely-local assignment where possible.
        for job in jobs:
            holders = [name for name in workers if self._is_local(job, name)]
            if holders:
                worker = min(holders, key=lambda name: (self._load[name], name))
            else:
                worker = self._earliest()
            placements[job.job_id] = worker
            self._load[worker] += self._cost(job, worker, self._is_local(job, worker))

        # Phase 2: trade locality for balance while the makespan improves.
        jobs_by_id = {job.job_id: job for job in jobs}
        moves = 0
        budget = self.max_adjustments if self.max_adjustments is not None else len(jobs) * 4
        while moves < budget:
            slowest = max(self._load, key=lambda name: (self._load[name], name))
            fastest = self._earliest()
            if slowest == fastest:
                break
            candidates = [
                job_id for job_id, worker in placements.items() if worker == slowest
            ]
            best_move = None
            best_makespan = self._load[slowest]
            for job_id in candidates:
                job = jobs_by_id[job_id]
                out_cost = self._cost(job, slowest, self._is_local(job, slowest))
                in_cost = self._cost(job, fastest, self._is_local(job, fastest))
                new_slowest = self._load[slowest] - out_cost
                new_fastest = self._load[fastest] + in_cost
                new_makespan = max(new_slowest, new_fastest)
                if new_makespan < best_makespan - 1e-12:
                    best_makespan = new_makespan
                    best_move = (job_id, out_cost, in_cost)
            if best_move is None:
                break
            job_id, out_cost, in_cost = best_move
            placements[job_id] = fastest
            self._load[slowest] -= out_cost
            self._load[fastest] += in_cost
            moves += 1
        self.adjustments = moves
        self._plan = placements

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        self._load.pop(worker, None)
        for job_id, name in list(self._plan.items()):
            if name == worker:
                del self._plan[job_id]

    def on_worker_joined(self, worker: str) -> None:
        if self._load and worker not in self._load:
            self._load[worker] = max(self._load.values())

    def on_worker_retired(self, worker: str) -> None:
        self._load.pop(worker, None)

    def on_job(self, job: Job) -> None:
        worker = self._plan.pop(job.job_id, None)
        if worker is None:
            if not self._load:
                self._load = {name: 0.0 for name in self.master.active_workers}
            worker = self._earliest()
            cost = self._cost(job, worker, self._is_local(job, worker))
            self._load[worker] += cost
        self.master.assign(job, worker)


class ReferenceSparkMasterPolicy(MasterPolicy):
    """Centralized upfront allocation with plan-time locality, over a dict."""

    name = "spark"
    requires_upfront = True

    def __init__(self, locality_wait_slots: int = 2, use_locality: bool = True) -> None:
        super().__init__()
        self.locality_wait_slots = locality_wait_slots
        self.use_locality = use_locality
        self.cache_view: dict[str, set[str]] = {}
        self._plan: dict[str, str] = {}
        self._planned_counts: dict[str, int] = {}
        self._order: Optional[list[str]] = None

    def _executor_order(self) -> list[str]:
        if self._order is None:
            order = list(self.master.worker_names)
            self.master.rng.shuffle(order)
            self._order = order
        return self._order

    def on_upfront_jobs(self, jobs: list[Job]) -> None:
        workers = self._executor_order()
        self._planned_counts = {worker: 0 for worker in workers}
        fair_share = len(jobs) / len(workers)
        cap = fair_share + self.locality_wait_slots
        for job in jobs:
            worker = None
            if self.use_locality and job.repo_id is not None:
                holders = [
                    name
                    for name in workers
                    if job.repo_id in self.cache_view.get(name, ())
                ]
                # NODE_LOCAL if a holder has plan room; else degrade to ANY.
                holders = [h for h in holders if self._planned_counts[h] < cap]
                if holders:
                    worker = min(holders, key=lambda h: (self._planned_counts[h], h))
            if worker is None:
                worker = self._least_loaded(workers)
            self._plan[job.job_id] = worker
            self._planned_counts[worker] += 1

    def _least_loaded(self, workers: list[str]) -> str:
        return min(
            enumerate(workers), key=lambda pair: (self._planned_counts[pair[1]], pair[0])
        )[1]

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        if self._order is not None and worker in self._order:
            self._order.remove(worker)
        self._planned_counts.pop(worker, None)
        for job_id, name in list(self._plan.items()):
            if name == worker:
                del self._plan[job_id]

    def on_worker_joined(self, worker: str) -> None:
        if self._order is not None and worker not in self._order:
            self._order.append(worker)
        if worker not in self._planned_counts:
            self._planned_counts[worker] = max(
                self._planned_counts.values(), default=0
            )

    def on_worker_retired(self, worker: str) -> None:
        if self._order is not None and worker in self._order:
            self._order.remove(worker)
        self._planned_counts.pop(worker, None)

    def on_job(self, job: Job) -> None:
        worker = self._plan.pop(job.job_id, None)
        if worker is None:
            # A dynamically spawned job: balanced, locality-blind.
            workers = self._executor_order()
            if len(self._planned_counts) < len(workers):
                # Executors that registered before any planning happened
                # (serve-mode scale-up) must enter the count table too.
                for name in workers:
                    self._planned_counts.setdefault(name, 0)
            worker = self._least_loaded(workers)
            self._planned_counts[worker] += 1
        self.master.assign(job, worker)
