"""Repository identities and the synthetic corpus.

A :class:`Repository` is the unit of data locality: jobs reference a
repository id, workers cache clones by id, and all transfer/processing
costs scale with the repository's size.  Contents are never modelled --
only identity and size matter to any scheduler in the paper.

:class:`RepositoryCorpus` is the population of repositories available to
a workload: generated synthetically from a size mixture, and queried by
the GitHub service model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.data.sizes import SizeMixture


@dataclass(frozen=True)
class Repository:
    """An immutable repository descriptor.

    Attributes
    ----------
    repo_id:
        Unique identifier (stands in for ``owner/name``).
    size_mb:
        Clone size in megabytes.
    stars / forks:
        Popularity metadata used by the simulated GitHub search filters
        (the paper's query: ">500MB with at least 5000 stars and forks").
    """

    repo_id: str
    size_mb: float
    stars: int = 5000
    forks: int = 5000

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise ValueError(f"size must be positive, got {self.size_mb}")
        if self.stars < 0 or self.forks < 0:
            raise ValueError("stars/forks must be non-negative")


class RepositoryCorpus:
    """The population of repositories a workload can reference."""

    def __init__(self, repositories: Optional[list[Repository]] = None) -> None:
        self._by_id: dict[str, Repository] = {}
        for repo in repositories or []:
            self.add(repo)

    def add(self, repo: Repository) -> None:
        """Register a repository; duplicate ids are an error."""
        if repo.repo_id in self._by_id:
            raise ValueError(f"duplicate repository id {repo.repo_id!r}")
        self._by_id[repo.repo_id] = repo

    def get(self, repo_id: str) -> Repository:
        """Look up by id (KeyError if absent)."""
        return self._by_id[repo_id]

    def __contains__(self, repo_id: str) -> bool:
        return repo_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Repository]:
        return iter(self._by_id.values())

    @property
    def total_mb(self) -> float:
        """Aggregate corpus size."""
        return sum(repo.size_mb for repo in self)

    @classmethod
    def generate(
        cls,
        n: int,
        mixture: SizeMixture,
        rng: np.random.Generator,
        prefix: str = "repo",
        stars_range: tuple[int, int] = (5000, 120_000),
    ) -> "RepositoryCorpus":
        """Generate ``n`` synthetic repositories.

        Sizes are drawn from ``mixture``; popularity metadata is drawn
        log-uniformly over ``stars_range`` so search filters have
        something to select on.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        lo, hi = stars_range
        if not 0 < lo <= hi:
            raise ValueError("invalid stars_range")
        corpus = cls()
        log_lo, log_hi = np.log(lo), np.log(hi)
        for index in range(n):
            stars = int(np.exp(rng.uniform(log_lo, log_hi)))
            forks = int(np.exp(rng.uniform(log_lo, log_hi)))
            corpus.add(
                Repository(
                    repo_id=f"{prefix}-{index:04d}",
                    size_mb=mixture.sample(rng),
                    stars=stars,
                    forks=forks,
                )
            )
        return corpus

    def filter(
        self,
        min_size_mb: float = 0.0,
        min_stars: int = 0,
        min_forks: int = 0,
    ) -> list[Repository]:
        """Repositories matching a GitHub-style popularity/size query."""
        return [
            repo
            for repo in self
            if repo.size_mb >= min_size_mb
            and repo.stars >= min_stars
            and repo.forks >= min_forks
        ]
