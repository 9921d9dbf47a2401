"""Stateful/property tests: cache model conformance, estimator laws,
end-to-end accounting invariants on random workloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import make_profile, make_spec, make_worker
from repro.core.estimator import CostEstimator
from repro.data.cache import WorkerCache
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


class UnboundedCacheModel(RuleBasedStateMachine):
    """The unbounded cache must behave exactly like a dict + counters."""

    def __init__(self):
        super().__init__()
        self.cache = WorkerCache()
        self.model: dict[str, float] = {}
        self.model_hits = 0
        self.model_misses = 0

    repo_ids = st.integers(min_value=0, max_value=12).map(lambda i: f"r{i}")
    sizes = st.floats(min_value=0.5, max_value=500.0)

    @rule(repo_id=repo_ids, size=sizes)
    def lookup_then_insert_on_miss(self, repo_id, size):
        hit = self.cache.lookup(repo_id)
        model_hit = repo_id in self.model
        assert hit == model_hit
        if model_hit:
            self.model_hits += 1
        else:
            self.model_misses += 1
            self.cache.insert(repo_id, size)
            self.model[repo_id] = size

    @rule(repo_id=repo_ids)
    def peek_is_pure(self, repo_id):
        before = (self.cache.stats.hits, self.cache.stats.misses)
        assert self.cache.peek(repo_id) == (repo_id in self.model)
        assert (self.cache.stats.hits, self.cache.stats.misses) == before

    @invariant()
    def counters_match_model(self):
        import math

        assert self.cache.stats.hits == self.model_hits
        assert self.cache.stats.misses == self.model_misses
        assert self.cache.contents() == self.model
        # Summation order differs (LRU reorders on hits), so compare to
        # float tolerance, not bit equality.
        assert math.isclose(self.cache.used_mb, sum(self.model.values()), rel_tol=1e-12)


TestUnboundedCacheModel = UnboundedCacheModel.TestCase


class BoundedCacheModel(RuleBasedStateMachine):
    """The bounded cache must never exceed capacity (except a lone
    oversize item) and must evict in LRU order."""

    CAPACITY = 300.0

    def __init__(self):
        super().__init__()
        self.cache = WorkerCache(capacity_mb=self.CAPACITY)
        #: LRU model: list of (repo_id, size), oldest first.
        self.model: list[tuple[str, float]] = []

    repo_ids = st.integers(min_value=0, max_value=8).map(lambda i: f"r{i}")
    sizes = st.floats(min_value=10.0, max_value=200.0)

    def _model_touch(self, repo_id):
        for index, (rid, size) in enumerate(self.model):
            if rid == repo_id:
                self.model.append(self.model.pop(index))
                return True
        return False

    def _model_insert(self, repo_id, size):
        while self.model and sum(s for _, s in self.model) + size > self.CAPACITY:
            self.model.pop(0)
        self.model.append((repo_id, size))

    @rule(repo_id=repo_ids, size=sizes)
    def access(self, repo_id, size):
        if self.cache.lookup(repo_id):
            assert self._model_touch(repo_id)
        else:
            assert not self._model_touch(repo_id)
            self.cache.insert(repo_id, size)
            self._model_insert(repo_id, size)

    @invariant()
    def contents_and_order_match(self):
        assert list(self.cache.contents().items()) == self.model

    @invariant()
    def capacity_respected(self):
        assert self.cache.used_mb <= self.CAPACITY or len(self.cache) == 1


TestBoundedCacheModel = BoundedCacheModel.TestCase


class TestEstimatorLaws:
    """Algebraic properties of Listing 2's estimate."""

    @given(
        size=st.floats(min_value=1.0, max_value=1000.0),
        queued=st.lists(st.floats(min_value=0.0, max_value=500.0), max_size=6),
    )
    def test_bid_decomposition(self, size, queued):
        sim = Simulator()
        worker = make_worker(sim)
        for index, cost in enumerate(queued):
            worker.unfinished[f"q{index}"] = cost
        estimator = CostEstimator(worker)
        job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=size)
        estimate = estimator.estimate(job)
        assert estimate.total_s == (
            estimate.workload_s + estimate.transfer_s + estimate.processing_s
        )
        assert estimate.workload_s == sum(queued)

    @given(size=st.floats(min_value=1.0, max_value=1000.0))
    def test_caching_never_increases_bid(self, size):
        sim = Simulator()
        cold_worker = make_worker(sim)
        job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=size)
        cold = CostEstimator(cold_worker).estimate(job).total_s

        sim2 = Simulator()
        warm_worker = make_worker(sim2)
        warm_worker.cache.insert("r", size)
        warm = CostEstimator(warm_worker).estimate(job).total_s
        assert warm <= cold

    @given(
        small=st.floats(min_value=1.0, max_value=500.0),
        delta=st.floats(min_value=0.1, max_value=500.0),
    )
    def test_bid_monotone_in_size(self, small, delta):
        sim = Simulator()
        worker = make_worker(sim)
        estimator = CostEstimator(worker)
        job_small = Job(job_id="a", task=TASK_ANALYZER, repo_id="r1", size_mb=small)
        job_large = Job(job_id="b", task=TASK_ANALYZER, repo_id="r2", size_mb=small + delta)
        assert (
            estimator.estimate(job_large).total_s
            > estimator.estimate(job_small).total_s
        )

    @given(speed_factor=st.floats(min_value=1.1, max_value=16.0))
    def test_faster_worker_bids_lower(self, speed_factor):
        job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=100.0)
        sim = Simulator()
        slow = make_worker(sim, make_spec("slow"))
        sim2 = Simulator()
        fast = make_worker(
            sim2, make_spec("slow").scaled(speed_factor, name="fast")
        )
        assert (
            CostEstimator(fast).estimate(job).total_s
            < CostEstimator(slow).estimate(job).total_s
        )


class TestEndToEndAccounting:
    """For any random workload, the accounting identities must hold."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_jobs=st.integers(min_value=1, max_value=25),
        scheduler=st.sampled_from(["bidding", "baseline", "spark", "random"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_accounting_identities(self, seed, n_jobs, scheduler):
        rng = np.random.default_rng(seed)
        arrivals = []
        for index in range(n_jobs):
            repo = f"r{rng.integers(0, max(1, n_jobs // 2))}"
            size = float(rng.uniform(1.0, 200.0))
            arrivals.append(
                JobArrival(
                    at=float(rng.uniform(0, 20)),
                    job=Job(
                        job_id=f"j{index}",
                        task=TASK_ANALYZER,
                        repo_id=repo,
                        size_mb=size,
                    ),
                )
            )
        # One size per repo (a clone has one size).
        sizes: dict[str, float] = {}
        fixed = []
        for arrival in arrivals:
            size = sizes.setdefault(arrival.job.repo_id, arrival.job.size_mb)
            fixed.append(
                JobArrival(
                    at=arrival.at,
                    job=Job(
                        job_id=arrival.job.job_id,
                        task=TASK_ANALYZER,
                        repo_id=arrival.job.repo_id,
                        size_mb=size,
                    ),
                )
            )
        stream = JobStream(arrivals=fixed)
        runtime = WorkflowRuntime(
            profile=make_profile(make_spec("w1"), make_spec("w2")),
            stream=stream,
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(
                seed=seed,
                noise_kind="none",
                noise_params={},
                topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            ),
        )
        result = runtime.run()
        # Identity 1: every job completed exactly once.
        assert result.jobs_completed == n_jobs
        # Identity 2: each data job either hit or missed.
        assert result.cache_hits + result.cache_misses == n_jobs
        # Identity 3: data load equals what actually moved through links.
        link_total = sum(w.machine.link.total_mb for w in runtime.workers.values())
        assert abs(result.data_load_mb - link_total) < 1e-6
        # Identity 4: misses at least the number of distinct repos used
        # (cold caches) and at most the job count.
        distinct = len({a.job.repo_id for a in fixed})
        assert distinct <= result.cache_misses <= n_jobs