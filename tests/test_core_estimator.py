"""Unit tests for Listing 2's cost estimation and the speed models."""

import pytest

from conftest import make_spec, make_worker
from repro.core.estimator import CostEstimate, CostEstimator
from repro.core.learning import (
    EWMASpeedModel,
    HistoricAverageSpeedModel,
    NominalSpeedModel,
)
from repro.workload.job import Job


def analysis_job(repo="r1", size=100.0, compute=0.0, job_id="j1"):
    return Job(
        job_id=job_id,
        task="RepositoryAnalyzer",
        repo_id=repo,
        size_mb=size,
        base_compute_s=compute,
    )


class TestCostEstimate:
    def test_totals(self):
        estimate = CostEstimate(workload_s=10.0, transfer_s=5.0, processing_s=2.0)
        assert estimate.total_s == pytest.approx(17.0)
        assert estimate.own_cost_s == pytest.approx(7.0)


class TestEstimator:
    def test_transfer_time_uses_nominal_network(self, sim):
        worker = make_worker(sim, make_spec(network=10.0))
        estimator = CostEstimator(worker)
        assert estimator.transfer_time(analysis_job(size=100.0)) == pytest.approx(10.0)

    def test_transfer_includes_link_latency(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, link_latency=0.5))
        estimator = CostEstimator(worker)
        assert estimator.transfer_time(analysis_job(size=100.0)) == pytest.approx(10.5)

    def test_cached_repo_transfers_free(self, sim):
        worker = make_worker(sim)
        worker.cache.insert("r1", 100.0)
        estimator = CostEstimator(worker)
        assert estimator.transfer_time(analysis_job()) == 0.0

    def test_data_free_job_transfers_free(self, sim):
        worker = make_worker(sim)
        estimator = CostEstimator(worker)
        job = Job(job_id="s", task="t", base_compute_s=1.0)
        assert estimator.transfer_time(job) == 0.0

    def test_processing_time(self, sim):
        worker = make_worker(sim, make_spec(rw=50.0))
        estimator = CostEstimator(worker)
        assert estimator.processing_time(analysis_job(size=100.0)) == pytest.approx(2.0)

    def test_processing_scales_fixed_compute_by_cpu(self, sim):
        worker = make_worker(sim, make_spec(cpu_factor=2.0))
        estimator = CostEstimator(worker)
        job = analysis_job(size=0.0, repo=None, compute=4.0)
        assert estimator.processing_time(job) == pytest.approx(2.0)

    def test_workload_cost_sums_unfinished(self, sim):
        worker = make_worker(sim)
        worker.unfinished["a"] = 10.0
        worker.unfinished["b"] = 5.0
        estimator = CostEstimator(worker)
        assert estimator.workload_cost() == pytest.approx(15.0)

    def test_full_estimate_listing2_sum(self, sim):
        worker = make_worker(sim, make_spec(network=10.0, rw=50.0))
        worker.unfinished["queued"] = 7.0
        estimator = CostEstimator(worker)
        estimate = estimator.estimate(analysis_job(size=100.0))
        assert estimate.workload_s == pytest.approx(7.0)
        assert estimate.transfer_s == pytest.approx(10.0)
        assert estimate.processing_s == pytest.approx(2.0)
        assert estimate.total_s == pytest.approx(19.0)

    def test_pending_downloads_count_as_local_by_default(self, sim):
        worker = make_worker(sim)
        worker.enqueue(analysis_job(repo="r9", size=50.0, job_id="queued"), 5.0)
        estimator = CostEstimator(worker)
        assert estimator.transfer_time(analysis_job(repo="r9", size=50.0, job_id="new")) == 0.0

    def test_pending_downloads_ignorable(self, sim):
        worker = make_worker(sim)
        worker.enqueue(analysis_job(repo="r9", size=50.0, job_id="queued"), 5.0)
        estimator = CostEstimator(worker, count_pending_downloads=False)
        assert estimator.transfer_time(
            analysis_job(repo="r9", size=50.0, job_id="new")
        ) == pytest.approx(5.0)


class TestSpeedModels:
    def test_nominal_reads_spec(self, sim):
        worker = make_worker(sim, make_spec(network=12.0, rw=34.0))
        model = NominalSpeedModel()
        assert model.network_mbps(worker) == 12.0
        assert model.rw_mbps(worker) == 34.0

    def test_historic_average_tracks_measurements(self, sim):
        worker = make_worker(sim, make_spec(network=10.0))
        worker.machine.record_network_sample(20.0)
        model = HistoricAverageSpeedModel()
        # Seeded with nominal 10, one sample of 20 -> mean 15.
        assert model.network_mbps(worker) == pytest.approx(15.0)

    def test_ewma_weights_recent(self, sim):
        worker = make_worker(sim, make_spec(network=10.0))
        model = EWMASpeedModel(alpha=0.5)
        assert model.network_mbps(worker) == pytest.approx(10.0)
        worker.machine.record_network_sample(30.0)
        assert model.network_mbps(worker) == pytest.approx(20.0)
        worker.machine.record_network_sample(30.0)
        assert model.network_mbps(worker) == pytest.approx(25.0)

    def test_ewma_rw_stream_independent(self, sim):
        worker = make_worker(sim, make_spec(rw=50.0))
        model = EWMASpeedModel(alpha=0.5)
        worker.machine.record_rw_sample(100.0)
        assert model.rw_mbps(worker) == pytest.approx(75.0)

    def test_ewma_validates_alpha(self):
        with pytest.raises(ValueError):
            EWMASpeedModel(alpha=0.0)
        with pytest.raises(ValueError):
            EWMASpeedModel(alpha=1.5)
