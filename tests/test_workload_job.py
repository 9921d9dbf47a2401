"""Unit tests for the job model and arrival streams."""

import numpy as np
import pytest

from repro.workload.job import Job, JobArrival, JobStream


def make_job(i=0, repo=None, size=0.0):
    return Job(
        job_id=f"j{i}",
        task="RepositoryAnalyzer",
        repo_id=repo,
        size_mb=size,
        payload=("lib",),
    )


class TestJob:
    def test_data_bound(self):
        assert make_job(repo="r", size=10.0).is_data_bound
        assert not make_job().is_data_bound

    def test_repo_requires_size(self):
        with pytest.raises(ValueError):
            Job(job_id="j", task="t", repo_id="r", size_mb=0.0)

    def test_size_requires_repo(self):
        with pytest.raises(ValueError):
            Job(job_id="j", task="t", repo_id=None, size_mb=5.0)

    def test_required_fields(self):
        with pytest.raises(ValueError):
            Job(job_id="", task="t")
        with pytest.raises(ValueError):
            Job(job_id="j", task="")

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id="j", task="t", base_compute_s=-1.0)

    def test_jobs_are_immutable(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.task = "other"


class TestJobArrival:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            JobArrival(at=-1.0, job=make_job())


class TestJobStream:
    def test_arrivals_sorted(self):
        jobs = [make_job(i) for i in range(3)]
        stream = JobStream(
            arrivals=[
                JobArrival(at=5.0, job=jobs[0]),
                JobArrival(at=1.0, job=jobs[1]),
                JobArrival(at=3.0, job=jobs[2]),
            ]
        )
        assert [a.at for a in stream] == [1.0, 3.0, 5.0]

    def test_burst_all_at_zero(self):
        stream = JobStream.burst([make_job(i) for i in range(5)])
        assert all(a.at == 0.0 for a in stream)
        assert len(stream) == 5

    def test_poisson_monotone_arrivals(self):
        stream = JobStream.poisson(
            [make_job(i) for i in range(50)], 2.0, np.random.default_rng(0)
        )
        times = [a.at for a in stream]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_poisson_mean_gap(self):
        stream = JobStream.poisson(
            [make_job(i) for i in range(2000)], 2.0, np.random.default_rng(1)
        )
        times = [a.at for a in stream]
        gaps = np.diff(times)
        assert abs(np.mean(gaps) - 2.0) < 0.15

    def test_poisson_zero_interarrival_is_burst(self):
        stream = JobStream.poisson(
            [make_job(i) for i in range(5)], 0.0, np.random.default_rng(0)
        )
        assert all(a.at == 0.0 for a in stream)

    def test_poisson_preserves_job_order(self):
        jobs = [make_job(i) for i in range(10)]
        stream = JobStream.poisson(jobs, 1.0, np.random.default_rng(2))
        assert stream.jobs == jobs

    def test_negative_interarrival_rejected(self):
        with pytest.raises(ValueError):
            JobStream.poisson([make_job()], -1.0, np.random.default_rng(0))
