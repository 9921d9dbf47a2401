"""A GitHub-API-shaped search service model.

Section 6.4 of the paper runs the MSR pipeline against the live GitHub
API; its responsiveness contributes latency to the search stage.  This
module stands in for it:

* :class:`SearchQuery` -- the popularity/size filters of the paper's
  motivating query ("repositories larger than 500MB with at least 5000
  stars and forks"),
* :class:`GitHubService` -- query evaluation over a
  :class:`~repro.data.repository.RepositoryCorpus` with modelled request
  latency, pagination, and a simple rate limiter.

Cloning bandwidth is *not* modelled here -- downloads go through each
worker's :class:`~repro.net.link.Link` (optionally contending on a
shared origin :class:`~repro.net.bandwidth.FairSharePipe`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.data.repository import Repository, RepositoryCorpus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class SearchQuery:
    """Filters for a repository search.

    Mirrors the motivating example's protocol step (2): search for
    favoured large-scale repositories, optionally scoped to a library
    (the scoping is what makes results differ per library job).
    """

    library: str
    min_size_mb: float = 0.0
    min_stars: int = 0
    min_forks: int = 0
    per_page: int = 30


class GitHubService:
    """Simulated code-search API over a synthetic corpus.

    Parameters
    ----------
    sim:
        Owning simulator.
    corpus:
        The repository population to search.
    request_latency:
        Mean per-request latency in seconds (drawn exponentially around
        this mean to model API responsiveness variance).
    rate_limit_per_minute:
        Requests allowed per rolling minute; callers exceeding it wait
        until the window frees (GitHub-style secondary limits).
    match_fraction:
        Fraction of qualifying repositories that "mention" any given
        library, drawn deterministically per (library, repo) pair so the
        same query always returns the same results.
    """

    def __init__(
        self,
        sim: "Simulator",
        corpus: RepositoryCorpus,
        request_latency: float = 0.25,
        rate_limit_per_minute: int = 600,
        match_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        if request_latency < 0:
            raise ValueError("request_latency must be non-negative")
        if rate_limit_per_minute < 1:
            raise ValueError("rate_limit_per_minute must be >= 1")
        if not 0 < match_fraction <= 1:
            raise ValueError("match_fraction must be in (0, 1]")
        self.sim = sim
        self.corpus = corpus
        self.request_latency = float(request_latency)
        self.rate_limit_per_minute = rate_limit_per_minute
        self.match_fraction = float(match_fraction)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._request_times: list[float] = []
        #: Total API requests served (pages count individually).
        self.request_count = 0

    # -- deterministic match predicate ------------------------------------

    def _matches_library(self, library: str, repo: Repository) -> bool:
        """Stable pseudo-random membership: does ``repo`` use ``library``?"""
        from repro.sim.rng import split_seed

        draw = split_seed(self.seed, "match", library, repo.repo_id) % 10_000
        return draw < self.match_fraction * 10_000

    def evaluate(self, query: SearchQuery) -> list[Repository]:
        """The query's result set, without any latency (pure function)."""
        hits = [
            repo
            for repo in self.corpus.filter(
                min_size_mb=query.min_size_mb,
                min_stars=query.min_stars,
                min_forks=query.min_forks,
            )
            if self._matches_library(query.library, repo)
        ]
        hits.sort(key=lambda repo: (-repo.stars, repo.repo_id))
        return hits

    # -- simulated API calls ----------------------------------------------

    def search(self, query: SearchQuery, done: Callable[[list], None]) -> None:
        """Run a paginated search; ``done(results)`` is called in the
        turn its last page's latency ends.

        Each page costs one rate-limited request with exponential
        latency; large result sets therefore take visibly longer, as the
        real API does.  The first request goes out in the caller's turn.
        """
        results = self.evaluate(query)
        pages = max(1, -(-len(results) // query.per_page))
        self._request(pages, results, done)

    def _request(self, pages: int, results: list, done: Callable[[list], None]) -> None:
        """One rate-limited API request with exponential latency."""
        window_start = self.sim.now - 60.0
        self._request_times = [t for t in self._request_times if t > window_start]
        if len(self._request_times) >= self.rate_limit_per_minute:
            # Wait until the oldest request in the window ages out.
            wait = self._request_times[0] - window_start
            self.sim.call_later(wait, self._send, pages, results, done)
        else:
            self._send(pages, results, done)

    def _send(self, pages: int, results: list, done: Callable[[list], None]) -> None:
        self._request_times.append(self.sim.now)
        self.request_count += 1
        latency = float(self._rng.exponential(self.request_latency))
        self.sim.call_later(latency, self._answered, pages - 1, results, done)

    def _answered(self, pages: int, results: list, done: Callable[[list], None]) -> None:
        if pages:
            self._request(pages, results, done)
        else:
            done(results)
