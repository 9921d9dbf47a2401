"""Unit tests for the Section 6.3.1 job configurations."""

import hashlib

import pytest

from repro.data.sizes import band_of
from repro.workload.generators import (
    JOB_CONFIG_BUILDERS,
    JOBS_PER_CONFIG,
    ZipfJobConfig,
    all_diff_equal,
    eighty_pct_large,
    eighty_pct_small,
    job_config_by_name,
)


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(JOB_CONFIG_BUILDERS))
    def test_all_configs_build(self, name):
        corpus, stream = job_config_by_name(name).build(seed=1)
        assert len(stream) == JOBS_PER_CONFIG
        assert len(corpus) >= 1

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError, match="valid:"):
            job_config_by_name("80%_medium")


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(JOB_CONFIG_BUILDERS))
    def test_same_seed_same_workload(self, name):
        _c1, s1 = job_config_by_name(name).build(seed=42)
        _c2, s2 = job_config_by_name(name).build(seed=42)
        assert [(a.at, a.job.job_id, a.job.size_mb) for a in s1] == [
            (a.at, a.job.job_id, a.job.size_mb) for a in s2
        ]

    def test_different_seed_different_sizes(self):
        _c1, s1 = all_diff_equal().build(seed=1)
        _c2, s2 = all_diff_equal().build(seed=2)
        assert [a.job.size_mb for a in s1] != [a.job.size_mb for a in s2]


class TestAllDifferent:
    @pytest.mark.parametrize(
        "name", ["all_diff_equal", "all_diff_large", "all_diff_small", "all_small_strict"]
    )
    def test_every_job_distinct_repo(self, name):
        _corpus, stream = job_config_by_name(name).build(seed=3)
        repos = [a.job.repo_id for a in stream]
        assert len(set(repos)) == len(repos)

    def test_equal_mix_has_all_bands(self):
        _corpus, stream = all_diff_equal().build(seed=4)
        bands = {band_of(a.job.size_mb).name for a in stream}
        assert bands == {"small", "medium", "large"}

    def test_large_config_mostly_large(self):
        _corpus, stream = job_config_by_name("all_diff_large").build(seed=5)
        shares = [band_of(a.job.size_mb).name for a in stream]
        assert shares.count("large") / len(shares) > 0.65

    def test_small_config_mostly_small(self):
        _corpus, stream = job_config_by_name("all_diff_small").build(seed=5)
        shares = [band_of(a.job.size_mb).name for a in stream]
        assert shares.count("small") / len(shares) > 0.65

    def test_strict_small_is_pure(self):
        _corpus, stream = job_config_by_name("all_small_strict").build(seed=6)
        assert all(band_of(a.job.size_mb).name == "small" for a in stream)


class TestRepetitive:
    def test_80_large_shares_one_large_repo(self):
        _corpus, stream = eighty_pct_large().build(seed=7)
        large_jobs = [a.job for a in stream if band_of(a.job.size_mb).name == "large"]
        shared = [job for job in large_jobs if job.repo_id.endswith("-shared")]
        share = len(shared) / len(large_jobs)
        assert 0.70 <= share <= 0.90
        # All shared jobs reference the same repository and size.
        assert len({job.repo_id for job in shared}) == 1
        assert len({job.size_mb for job in shared}) == 1

    def test_80_small_shares_one_small_repo(self):
        _corpus, stream = eighty_pct_small().build(seed=8)
        small_jobs = [a.job for a in stream if band_of(a.job.size_mb).name == "small"]
        shared = [job for job in small_jobs if job.repo_id.endswith("-shared")]
        assert 0.70 <= len(shared) / len(small_jobs) <= 0.90

    def test_non_dominant_band_not_repetitive(self):
        _corpus, stream = eighty_pct_large().build(seed=9)
        non_large = [a.job for a in stream if band_of(a.job.size_mb).name != "large"]
        repos = [job.repo_id for job in non_large]
        assert len(set(repos)) == len(repos)

    def test_corpus_contains_every_referenced_repo(self):
        corpus, stream = eighty_pct_large().build(seed=10)
        for arrival in stream:
            assert arrival.job.repo_id in corpus
            assert corpus.get(arrival.job.repo_id).size_mb == arrival.job.size_mb


class TestArrivals:
    def test_jobs_arrive_over_time(self):
        _corpus, stream = all_diff_equal().build(seed=11)
        times = [a.at for a in stream]
        assert times[-1] > 0.0
        assert times == sorted(times)

    def test_all_jobs_target_analyzer(self):
        _corpus, stream = all_diff_equal().build(seed=12)
        assert all(a.job.task == "RepositoryAnalyzer" for a in stream)


def _digest(config, seed: int) -> str:
    corpus, stream = config.build(seed=seed)
    drawn = (
        [(repo.repo_id, repo.size_mb) for repo in corpus],
        [(a.at, a.job.job_id, a.job.repo_id, a.job.size_mb) for a in stream],
    )
    return hashlib.sha256(repr(drawn).encode()).hexdigest()[:16]


#: (config, seed) -> digest of its corpus and arrivals, recorded before
#: the category draws moved off ``Generator.choice``: a cached CDF and
#: one ``rng.random()`` must give the very same workloads.
PINNED_DRAWS = {
    ("80%_large", 1): "61e8ba6871ab28e8",
    ("80%_large", 11): "146bdf92edce03ed",
    ("80%_large", 97): "629ac9aa6c6b2be4",
    ("80%_small", 1): "592f188a3177caca",
    ("80%_small", 11): "82acf35a25824c83",
    ("80%_small", 97): "2576feb081015c3b",
    ("all_diff_equal", 1): "3157d3532302a4f1",
    ("all_diff_equal", 11): "6f2c18571eac5e0d",
    ("all_diff_equal", 97): "430828f01b56a94f",
    ("all_diff_large", 1): "0d14ae1f93b4b03f",
    ("all_diff_large", 11): "4d70db969a927bf8",
    ("all_diff_large", 97): "af1d6317ada623f4",
    ("all_diff_small", 1): "8a271232bdf96b6d",
    ("all_diff_small", 11): "e2b633187bff7d02",
    ("all_diff_small", 97): "28879599e674e6ad",
    ("all_small_strict", 1): "54b86d9e2a28ed39",
    ("all_small_strict", 11): "64263f2394056911",
    ("all_small_strict", 97): "b92b4fc45c636ae9",
    ("zipf", 1): "fea1412a982ac46d",
    ("zipf", 11): "d9f17e993d7e2259",
    ("zipf", 97): "a1c8b6d29510f146",
    ("zipf-1.5", 1): "f1c028dce5f2c806",
    ("zipf-1.5", 11): "29f1c5922510cc9f",
    ("zipf-1.5", 97): "b4456be049df3b2f",
}


class TestPinnedDraws:
    @pytest.mark.parametrize("name, seed", sorted(PINNED_DRAWS))
    def test_workload_is_unchanged(self, name, seed):
        config = (
            ZipfJobConfig(alpha=1.5, n_repos=25, name="zipf-pinned")
            if name == "zipf-1.5"
            else job_config_by_name(name)
        )
        assert _digest(config, seed) == PINNED_DRAWS[name, seed]
