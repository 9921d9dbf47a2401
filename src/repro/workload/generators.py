"""The five job configurations of Section 6.3.1.

Each configuration has 120 jobs "to emulate the real-world assignment
patterns"; repositories "can vary in sizes (be small, medium or large,
ranging between 1MB and 1GB), and the jobs can be all different or
repetitive":

* ``all_diff_equal`` -- equal distribution of repository sizes, all jobs
  use different repositories.
* ``all_diff_large`` -- mostly large repositories, all different.
* ``all_diff_small`` -- mostly small repositories, all different.
* ``80%_large``      -- mostly large; within the set of large-scale
  jobs, 80 % require the *same* large repository.
* ``80%_small``      -- mostly small; within the set of small-scale
  jobs, 80 % require the same repository.

The jobs produced here are bare ``RepositoryAnalyzer`` jobs (the
data-heavy stage): Section 6.3's controlled experiments exercise the
schedulers directly on repository jobs, while the full pipeline of
Section 6.4 is driven by :mod:`repro.workload.msr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.repository import Repository, RepositoryCorpus
from repro.data.sizes import (
    SizeMixture,
    band_by_name,
    equal_mixture,
    mostly_large,
    mostly_small,
)
from repro.sim.rng import choice_cdf
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER

#: Paper constant: every configuration has 120 jobs.
JOBS_PER_CONFIG = 120

#: Repetition level in the repetitive configurations.
REPEAT_SHARE = 0.8

#: Mean inter-arrival of the simulated job stream (seconds).  The paper
#: streams jobs; 1 s keeps the cluster saturated (arrival horizon ~2 min
#: vs. makespans of tens of minutes) while still letting allocation
#: decisions interleave with execution.
DEFAULT_MEAN_INTERARRIVAL_S = 1.0

#: Fixed compute per analysis job (seconds at a 1.0-CPU worker).
DEFAULT_BASE_COMPUTE_S = 1.0


@dataclass(frozen=True)
class JobConfig:
    """A named workload generator.

    Calling :meth:`build` with a seed yields the corpus of repositories
    the jobs reference plus the arrival stream -- deterministically, so
    both schedulers in a comparison see the identical workload.
    """

    name: str
    mixture: SizeMixture
    repetitive_band: str | None = None
    repeat_share: float = REPEAT_SHARE
    n_jobs: int = JOBS_PER_CONFIG
    mean_interarrival_s: float = DEFAULT_MEAN_INTERARRIVAL_S
    base_compute_s: float = DEFAULT_BASE_COMPUTE_S

    def build(self, seed: int) -> tuple[RepositoryCorpus, JobStream]:
        """Materialise the workload for ``seed``."""
        rng = np.random.default_rng(seed)
        corpus = RepositoryCorpus()
        jobs: list[Job] = []

        shared_repo: Repository | None = None
        if self.repetitive_band is not None:
            band = band_by_name(self.repetitive_band)
            shared_repo = Repository(
                repo_id=f"{self.name}-shared", size_mb=band.sample(rng)
            )
            corpus.add(shared_repo)

        # Assign each job a band first, then decide repetition within the
        # dominant band, matching "within the set of large-scale jobs,
        # 80% require the same large repository".
        for index in range(self.n_jobs):
            band = self.mixture.sample_band(rng)
            repeat = (
                shared_repo is not None
                and band.name == self.repetitive_band
                and rng.random() < self.repeat_share
            )
            if repeat:
                repo = shared_repo
            else:
                repo = Repository(
                    repo_id=f"{self.name}-{index:03d}", size_mb=band.sample(rng)
                )
                corpus.add(repo)
            jobs.append(
                Job(
                    job_id=f"job-{index:03d}",
                    task=TASK_ANALYZER,
                    repo_id=repo.repo_id,
                    size_mb=repo.size_mb,
                    base_compute_s=self.base_compute_s,
                    payload=("lib", repo.repo_id),
                )
            )

        stream = JobStream.poisson(
            jobs, self.mean_interarrival_s, rng, name=self.name
        )
        return corpus, stream


@dataclass(frozen=True)
class ZipfJobConfig:
    """A skew-controlled repetitive workload (extension).

    Real repository-mining workloads do not have one hot repository and
    a flat rest (the paper's ``80%_*`` shape): popularity follows a
    power law.  Here job ``i`` references repository ``k`` with
    probability proportional to ``1 / rank(k)^alpha`` over a fixed pool:

    * ``alpha = 0``  -- uniform references (minimal reuse),
    * ``alpha = 1``  -- classic Zipf (web-like skew),
    * ``alpha = 2+`` -- extreme concentration (approaches ``80%_*``).

    Locality-aware schedulers should gain with ``alpha``; the skew
    ablation (A8) sweeps it.
    """

    alpha: float
    n_repos: int = 40
    name: str = "zipf"
    mixture: SizeMixture = None  # type: ignore[assignment]
    n_jobs: int = JOBS_PER_CONFIG
    mean_interarrival_s: float = DEFAULT_MEAN_INTERARRIVAL_S
    base_compute_s: float = DEFAULT_BASE_COMPUTE_S

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.n_repos < 1:
            raise ValueError("n_repos must be positive")
        if self.mixture is None:
            object.__setattr__(self, "mixture", equal_mixture())

    def build(self, seed: int) -> tuple[RepositoryCorpus, JobStream]:
        """Materialise the workload for ``seed``."""
        rng = np.random.default_rng(seed)
        repos = [
            Repository(
                repo_id=f"{self.name}-{index:03d}", size_mb=self.mixture.sample(rng)
            )
            for index in range(self.n_repos)
        ]
        corpus = RepositoryCorpus(list(repos))
        weights = np.array(
            [1.0 / (rank + 1) ** self.alpha for rank in range(self.n_repos)]
        )
        cdf = choice_cdf(weights / weights.sum())
        jobs = []
        for index in range(self.n_jobs):
            repo = repos[int(cdf.searchsorted(rng.random(), side="right"))]
            jobs.append(
                Job(
                    job_id=f"job-{index:03d}",
                    task=TASK_ANALYZER,
                    repo_id=repo.repo_id,
                    size_mb=repo.size_mb,
                    base_compute_s=self.base_compute_s,
                    payload=("lib", repo.repo_id),
                )
            )
        stream = JobStream.poisson(jobs, self.mean_interarrival_s, rng, name=self.name)
        return corpus, stream


def all_diff_equal() -> JobConfig:
    """Equal size distribution, all repositories different."""
    return JobConfig(name="all_diff_equal", mixture=equal_mixture())


def all_diff_large() -> JobConfig:
    """Mostly large repositories, all different."""
    return JobConfig(name="all_diff_large", mixture=mostly_large())


def all_diff_small() -> JobConfig:
    """Mostly small repositories, all different."""
    return JobConfig(name="all_diff_small", mixture=mostly_small())


def all_diff_small_strict() -> JobConfig:
    """*Only* small repositories, all different.

    Used by the Figure 2 reproduction, whose second column group
    processes "small repositories ... (e.g., smaller than 50MB)" --
    strictly small, unlike ``all_diff_small``'s 80/10/10 mixture.
    """
    return JobConfig(
        name="all_small_strict", mixture=SizeMixture.of(small=1.0)
    )


def eighty_pct_large() -> JobConfig:
    """Mostly large; 80 % of the large jobs share one repository."""
    return JobConfig(
        name="80%_large", mixture=mostly_large(), repetitive_band="large"
    )


def eighty_pct_small() -> JobConfig:
    """Mostly small; 80 % of the small jobs share one repository."""
    return JobConfig(
        name="80%_small", mixture=mostly_small(), repetitive_band="small"
    )


def zipf_workload(alpha: float = 1.0) -> ZipfJobConfig:
    """Skew-controlled repetitive workload (see :class:`ZipfJobConfig`)."""
    return ZipfJobConfig(alpha=alpha, name=f"zipf-{alpha:g}")


#: Registry of the paper's configurations by canonical name.
JOB_CONFIG_BUILDERS: dict[str, Callable[[], object]] = {
    "all_diff_equal": all_diff_equal,
    "all_diff_large": all_diff_large,
    "all_diff_small": all_diff_small,
    "all_small_strict": all_diff_small_strict,
    "80%_large": eighty_pct_large,
    "80%_small": eighty_pct_small,
    "zipf": zipf_workload,
}


def job_config_by_name(name: str):
    """Look up a canonical job configuration (KeyError lists valid names).

    Returns a :class:`JobConfig` (or :class:`ZipfJobConfig` for
    ``"zipf"``) -- anything with a ``build(seed)`` method and
    override-able dataclass fields.
    """
    try:
        return JOB_CONFIG_BUILDERS[name]()
    except KeyError:
        valid = ", ".join(sorted(JOB_CONFIG_BUILDERS))
        raise KeyError(f"unknown job config {name!r}; valid: {valid}") from None
