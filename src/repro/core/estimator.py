"""Worker-side bid estimation (Listing 2, lines 2-5).

A bid is the worker's estimate of when it could finish the job::

    bid  = totalCostOfUnfinishedJobs()          # committed workload
         + estimateDataTransferTime(job)        # 0 if data is local
         + estimateProcessingTime(job)

The paper leaves the concrete formulas application-specific; for the
MSR workload they are the natural ones it sketches: transfer time is
``size / network_speed`` and processing time is ``size / rw_speed``
(both per the worker's current :class:`~repro.core.learning.SpeedModel`),
plus the link's fixed per-clone latency and the job's fixed compute.

``count_pending_downloads`` controls whether repositories that a
*queued* job will download count as "local" for a new bid.  Counting
them (default) avoids double-charging the same clone in back-to-back
bids; not counting them is the naive filesystem probe.  Ablation A1/A3
in DESIGN.md exercises both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.learning import NominalSpeedModel, SpeedModel
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.worker import WorkerNode


@dataclass(frozen=True)
class CostEstimate:
    """A decomposed bid: the three Listing-2 components."""

    workload_s: float
    transfer_s: float
    processing_s: float

    @property
    def total_s(self) -> float:
        """The bid value submitted to the master."""
        return self.workload_s + self.transfer_s + self.processing_s

    @property
    def own_cost_s(self) -> float:
        """The job's own cost (what joins the committed workload on a win)."""
        return self.transfer_s + self.processing_s


class CostEstimator:
    """Computes Listing-2 estimates for one worker."""

    def __init__(
        self,
        worker: "WorkerNode",
        speed_model: SpeedModel | None = None,
        count_pending_downloads: bool = True,
    ) -> None:
        self.worker = worker
        self.speed_model = speed_model or NominalSpeedModel()
        self.count_pending_downloads = count_pending_downloads

    # -- the three components ------------------------------------------------

    def workload_cost(self) -> float:
        """``totalCostOfUnfinishedJobs()`` -- Listing 2 line 2."""
        return self.worker.committed_cost()

    def holds(self, repo_id: str) -> bool:
        """Whether ``repo_id`` would be local by the time a job runs."""
        if self.count_pending_downloads:
            return self.worker.will_hold(repo_id)
        return self.worker.cache.peek(repo_id)

    def is_local(self, job: Job) -> bool:
        """Whether the job's data would be local by the time it runs."""
        return job.repo_id is None or self.holds(job.repo_id)

    def transfer_time(self, job: Job) -> float:
        """``estimateDataTransferTime`` -- Listing 2 line 4.

        "Minimum expenses are incurred when the worker possesses the
        data stored locally."
        """
        if self.is_local(job):
            return 0.0
        network = self.speed_model.network_mbps(self.worker)
        return self.worker.spec.link_latency + job.size_mb / network

    def processing_time(self, job: Job) -> float:
        """``estimateProcessingTime`` -- Listing 2 line 5."""
        rw = self.speed_model.rw_mbps(self.worker)
        return job.base_compute_s / self.worker.spec.cpu_factor + job.size_mb / rw

    # -- the bid ---------------------------------------------------------------

    def estimate(self, job: Job) -> CostEstimate:
        """The full decomposed bid for ``job``."""
        return CostEstimate(
            workload_s=self.workload_cost(),
            transfer_s=self.transfer_time(job),
            processing_s=self.processing_time(job),
        )
