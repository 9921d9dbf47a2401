"""Unbounded synthetic job sources for the open-loop service layer.

The paper's workloads (:mod:`repro.workload.generators`) are *closed*:
exactly 120 jobs, built upfront, run to completion.  A long-running
service instead needs a source that can mint the *i*-th job on demand,
forever.  :class:`SyntheticJobSource` provides that: a fixed pool of
repositories whose popularity follows a Zipf law (web-like skew, the
regime where locality-aware allocation pays), sizes drawn from the
Section 6.3.1 band mixtures, and jobs attributed to weighted tenants so
the admission layer can enforce multi-tenant fairness.

The source is deterministic given the generator passed in: pool
construction and per-job draws consume the caller's RNG stream in call
order, so a fixed service seed reproduces the exact job sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.data.sizes import SizeMixture, mostly_small
from repro.sim.rng import choice_cdf
from repro.workload.job import Job
from repro.workload.msr import TASK_ANALYZER


def tenant_of(job: Job) -> str:
    """The tenant a service job belongs to (first payload element)."""
    if job.payload and isinstance(job.payload[0], str):
        return job.payload[0]
    return "default"


@dataclass
class SyntheticJobSource:
    """Mints service jobs on demand from a Zipf-popular repository pool.

    Parameters
    ----------
    n_repos:
        Size of the repository pool jobs draw from.
    alpha:
        Zipf skew of repository popularity (0 = uniform references,
        1 = classic web skew; higher concentrates load on few repos).
    mixture:
        Size-band mixture for the pool (defaults to mostly-small, the
        regime where a service can actually keep up with arrivals).
    base_compute_s:
        Fixed compute per job at a 1.0-CPU worker.
    tenants:
        Mapping tenant name -> arrival-share weight.  Each minted job is
        attributed to a tenant drawn with these probabilities.
    name:
        Label used in repo/job ids and reports.
    """

    n_repos: int = 60
    alpha: float = 0.8
    mixture: SizeMixture = field(default_factory=mostly_small)
    base_compute_s: float = 1.0
    tenants: dict[str, float] = field(default_factory=lambda: {"default": 1.0})
    name: str = "service"

    def __post_init__(self) -> None:
        if self.n_repos < 1:
            raise ValueError("n_repos must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.base_compute_s < 0:
            raise ValueError("base_compute_s must be non-negative")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        if any(weight <= 0 for weight in self.tenants.values()):
            raise ValueError("tenant weights must be positive")
        self._sizes: Optional[list[float]] = None
        #: Repo popularity and tenant shares as CDFs, built once (the
        #: tenants' again whenever a caller replaced or edited the dict).
        self._repo_cdf: Optional[np.ndarray] = None
        self._tenant_cdf: Optional[np.ndarray] = None
        self._tenant_names: list[str] = []
        self._tenants_seen: dict[str, float] = {}
        self._minted = 0

    # -- lazy pool ---------------------------------------------------------

    def _materialise(self, rng: np.random.Generator) -> None:
        """Draw the repository pool (first call only)."""
        self._sizes = [float(self.mixture.sample(rng)) for _ in range(self.n_repos)]
        weights = np.array(
            [1.0 / (rank + 1) ** self.alpha for rank in range(self.n_repos)]
        )
        self._repo_cdf = choice_cdf(weights / weights.sum())

    @property
    def minted(self) -> int:
        """How many jobs this source has produced so far."""
        return self._minted

    def next_job(self, rng: np.random.Generator) -> tuple[Job, str]:
        """Mint the next job and the tenant it belongs to."""
        if self._sizes is None:
            self._materialise(rng)
        index = self._minted
        self._minted += 1
        if self.tenants != self._tenants_seen:
            self._tenants_seen = dict(self.tenants)
            self._tenant_names = sorted(self.tenants)
            shares = np.array([self.tenants[t] for t in self._tenant_names])
            self._tenant_cdf = choice_cdf(shares / shares.sum())
        # One uniform per draw, looked up in the CDF: the same stream
        # and the same index as ``rng.choice(n, p=weights)``.
        repo_rank = int(self._repo_cdf.searchsorted(rng.random(), side="right"))
        repo_id = f"{self.name}-repo-{repo_rank:04d}"
        tenant = self._tenant_names[
            int(self._tenant_cdf.searchsorted(rng.random(), side="right"))
        ]
        job = Job(
            job_id=f"{self.name}-{index:06d}",
            task=TASK_ANALYZER,
            repo_id=repo_id,
            size_mb=self._sizes[repo_rank],
            base_compute_s=self.base_compute_s,
            payload=(tenant, repo_id),
        )
        return job, tenant
