"""Unit tests for repositories, the corpus and the GitHub model."""

import numpy as np
import pytest

from repro.data.github import GitHubService, SearchQuery
from repro.data.repository import Repository, RepositoryCorpus
from repro.data.sizes import equal_mixture
from repro.sim import Simulator


class TestRepository:
    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Repository("r", 0.0)

    def test_invalid_popularity_rejected(self):
        with pytest.raises(ValueError):
            Repository("r", 1.0, stars=-1)


class TestCorpus:
    def test_add_and_get(self):
        corpus = RepositoryCorpus()
        repo = Repository("r1", 10.0)
        corpus.add(repo)
        assert corpus.get("r1") is repo
        assert "r1" in corpus
        assert len(corpus) == 1

    def test_duplicate_rejected(self):
        corpus = RepositoryCorpus([Repository("r1", 10.0)])
        with pytest.raises(ValueError):
            corpus.add(Repository("r1", 20.0))

    def test_total_mb(self):
        corpus = RepositoryCorpus([Repository("a", 10.0), Repository("b", 5.0)])
        assert corpus.total_mb == pytest.approx(15.0)

    def test_generate_count_and_determinism(self):
        a = RepositoryCorpus.generate(50, equal_mixture(), np.random.default_rng(1))
        b = RepositoryCorpus.generate(50, equal_mixture(), np.random.default_rng(1))
        assert len(a) == 50
        assert [r.size_mb for r in a] == [r.size_mb for r in b]

    def test_generate_respects_stars_range(self):
        corpus = RepositoryCorpus.generate(
            100, equal_mixture(), np.random.default_rng(2), stars_range=(1000, 2000)
        )
        assert all(1000 <= repo.stars <= 2000 for repo in corpus)

    def test_filter(self):
        corpus = RepositoryCorpus(
            [
                Repository("big-popular", 800.0, stars=9000, forks=9000),
                Repository("big-obscure", 800.0, stars=10, forks=10),
                Repository("small-popular", 5.0, stars=9000, forks=9000),
            ]
        )
        hits = corpus.filter(min_size_mb=500.0, min_stars=5000, min_forks=5000)
        assert [r.repo_id for r in hits] == ["big-popular"]

    def test_generate_invalid_args(self):
        with pytest.raises(ValueError):
            RepositoryCorpus.generate(-1, equal_mixture(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            RepositoryCorpus.generate(
                1, equal_mixture(), np.random.default_rng(0), stars_range=(0, 10)
            )


class TestGitHubService:
    @pytest.fixture
    def service(self):
        sim = Simulator()
        corpus = RepositoryCorpus.generate(
            100, equal_mixture(), np.random.default_rng(3)
        )
        return sim, GitHubService(sim, corpus, match_fraction=0.5, seed=7)

    def test_evaluate_is_pure_and_deterministic(self, service):
        _sim, github = service
        query = SearchQuery(library="lodash", min_stars=5000)
        assert [r.repo_id for r in github.evaluate(query)] == [
            r.repo_id for r in github.evaluate(query)
        ]

    def test_different_libraries_different_results(self, service):
        _sim, github = service
        a = {r.repo_id for r in github.evaluate(SearchQuery(library="lodash"))}
        b = {r.repo_id for r in github.evaluate(SearchQuery(library="react"))}
        assert a != b

    def test_results_sorted_by_stars(self, service):
        _sim, github = service
        results = github.evaluate(SearchQuery(library="lodash"))
        stars = [r.stars for r in results]
        assert stars == sorted(stars, reverse=True)

    def test_search_process_costs_latency(self, service):
        sim, github = service

        found = []
        github.search(
            SearchQuery(library="lodash"),
            lambda results: found.append((sim.now, len(results))),
        )
        sim.run()
        [(elapsed, count)] = found
        assert count > 0
        assert elapsed > 0.0

    def test_pagination_costs_more_requests(self):
        sim = Simulator()
        corpus = RepositoryCorpus.generate(
            200, equal_mixture(), np.random.default_rng(4)
        )
        github = GitHubService(sim, corpus, match_fraction=1.0, seed=1)

        github.search(SearchQuery(library="x", per_page=30), lambda results: None)
        sim.run()
        assert github.request_count == -(-200 // 30)

    def test_rate_limit_delays(self):
        sim = Simulator()
        corpus = RepositoryCorpus([Repository("r", 10.0, stars=9000, forks=9000)])
        github = GitHubService(
            sim, corpus, request_latency=0.0, rate_limit_per_minute=2, match_fraction=1.0
        )

        ends = []

        def search_again(_results=None):
            ends.append(sim.now)
            if len(ends) <= 3:
                github.search(SearchQuery(library="x"), search_again)

        search_again()
        sim.run()
        # Third request must wait for the 60 s window.
        assert len(ends) == 4 and ends[-1] >= 60.0

    def test_match_fraction_validated(self):
        sim = Simulator()
        corpus = RepositoryCorpus()
        with pytest.raises(ValueError):
            GitHubService(sim, corpus, match_fraction=0.0)
        with pytest.raises(ValueError):
            GitHubService(sim, corpus, rate_limit_per_minute=0)
        with pytest.raises(ValueError):
            GitHubService(sim, corpus, request_latency=-0.1)

    def test_match_fraction_controls_hit_rate(self):
        sim = Simulator()
        corpus = RepositoryCorpus.generate(
            400, equal_mixture(), np.random.default_rng(5)
        )
        sparse = GitHubService(sim, corpus, match_fraction=0.1, seed=1)
        dense = GitHubService(sim, corpus, match_fraction=0.9, seed=1)
        query = SearchQuery(library="lodash")
        assert len(sparse.evaluate(query)) < len(dense.evaluate(query))
