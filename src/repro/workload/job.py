"""The job model.

"Each job is defined as a piece of data required to process a task"
(Section 2).  A :class:`Job` therefore names the pipeline task that must
consume it, carries an optional repository data-dependency (the locality
dimension every scheduler reasons about), and a fixed compute component
for tasks whose cost is not size-proportional.

Jobs are immutable; workers and the master exchange them by reference
inside simulated messages.

:class:`JobStream` describes how jobs *arrive* at the master over
simulated time -- the paper streams jobs ("Crossflow performs impromptu
task allocation as jobs arrive"), so arrival timing is part of the
workload definition, not the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    Attributes
    ----------
    job_id:
        Unique id within a workflow run.
    task:
        Name of the pipeline task that consumes this job.
    repo_id / size_mb:
        The repository the job needs locally, and its clone size in MB.
        ``repo_id=None`` (with ``size_mb=0``) marks a data-free job
        (e.g. a search or aggregation step).
    base_compute_s:
        Fixed compute seconds at a 1.0-CPU-factor worker, independent of
        repository size.
    payload:
        Application data, e.g. ``("lodash",)`` for a search job or
        ``("lodash", "repo-0007")`` for an analysis job.
    """

    job_id: str
    task: str
    repo_id: Optional[str] = None
    size_mb: float = 0.0
    base_compute_s: float = 0.0
    payload: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.task:
            raise ValueError("task must be non-empty")
        if self.size_mb < 0:
            raise ValueError(f"size_mb must be non-negative, got {self.size_mb}")
        if self.base_compute_s < 0:
            raise ValueError("base_compute_s must be non-negative")
        if self.repo_id is None and self.size_mb > 0:
            raise ValueError("a job without a repository cannot have a data size")
        if self.repo_id is not None and self.size_mb <= 0:
            raise ValueError("a repository-bound job must have a positive size")

    @property
    def is_data_bound(self) -> bool:
        """Whether this job has a repository data-dependency."""
        return self.repo_id is not None


@dataclass(frozen=True)
class JobArrival:
    """A job plus its arrival offset (seconds after workflow start)."""

    at: float
    job: Job

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass
class JobStream:
    """A finite stream of job arrivals fed to the master.

    Parameters
    ----------
    arrivals:
        Arrival records; kept sorted by time (stable for ties).
    name:
        Workload label used in reports (e.g. ``"80%_large"``).
    """

    arrivals: list[JobArrival] = field(default_factory=list)
    name: str = "stream"

    def __post_init__(self) -> None:
        self.arrivals = sorted(self.arrivals, key=lambda a: a.at)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[JobArrival]:
        return iter(self.arrivals)

    @property
    def jobs(self) -> list[Job]:
        """All jobs in arrival order."""
        return [arrival.job for arrival in self.arrivals]

    @classmethod
    def poisson(
        cls,
        jobs: list[Job],
        mean_interarrival_s: float,
        rng: np.random.Generator,
        name: str = "stream",
    ) -> "JobStream":
        """Arrivals with exponential gaps (a memoryless job source)."""
        if mean_interarrival_s < 0:
            raise ValueError("mean_interarrival_s must be non-negative")
        if mean_interarrival_s > 0:
            gaps = rng.exponential(mean_interarrival_s, size=len(jobs)).tolist()
        else:
            gaps = [0.0] * len(jobs)
        at = 0.0
        arrivals = []
        for job, gap in zip(jobs, gaps):
            arrivals.append(JobArrival(at=at, job=job))
            at += gap
        return cls(arrivals=arrivals, name=name)

    @classmethod
    def burst(cls, jobs: list[Job], name: str = "stream") -> "JobStream":
        """All jobs available at time zero (a batch submission)."""
        return cls(arrivals=[JobArrival(at=0.0, job=job) for job in jobs], name=name)
