"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.cache import WorkerCache
from repro.data.sizes import band_of
from repro.net.bandwidth import FairSharePipe
from reference_sim import Simulator, Store
from repro.sim.rng import split_seed
from repro.schedulers.contest import Contest
from repro.engine.messages import Bid
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER


# -- DES kernel ---------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_kernel_clock_monotonic_under_arbitrary_delays(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.timeout(delay).add_callback(lambda e: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100))
def test_store_preserves_fifo_for_any_items(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim, store, n):
        for _ in range(n):
            value = yield store.get()
            received.append(value)

    for item in items:
        store.put(item)
    sim.process(consumer(sim, store, len(items)))
    sim.run()
    assert received == items


# -- rng ------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=4),
)
def test_split_seed_stable_and_bounded(seed, keys):
    first = split_seed(seed, *keys)
    second = split_seed(seed, *keys)
    assert first == second
    assert 0 <= first < 2**64


# -- fair-share pipe -------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.1, max_value=500.0), min_size=1, max_size=12),
    st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_pipe_conserves_work_when_saturated(sizes, capacity):
    """Simultaneous transfers through a shared pipe finish at exactly
    total_bytes / capacity, regardless of the sharing schedule."""
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_mbps=capacity)
    finished = []
    for size in sizes:
        pipe.transfer(size, finished.append)
    sim.run()
    assert len(finished) == len(sizes)
    np.testing.assert_allclose(sim.now, sum(sizes) / capacity, rtol=1e-9)


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_pipe_completion_order_matches_size_order(sizes):
    """With simultaneous starts, smaller transfers never finish after
    larger ones (processor sharing preserves size ordering)."""
    sim = Simulator()
    pipe = FairSharePipe(sim, capacity_mbps=10.0)
    finish_times = {}

    def record(index):
        def callback(_elapsed):
            finish_times[index] = sim.now

        return callback

    for index, size in enumerate(sizes):
        pipe.transfer(size, record(index))
    sim.run()
    by_size = sorted(range(len(sizes)), key=lambda i: sizes[i])
    times_in_size_order = [finish_times[i] for i in by_size]
    assert times_in_size_order == sorted(times_in_size_order)


# -- cache -------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.floats(min_value=1.0, max_value=200.0)),
        min_size=1,
        max_size=100,
    ),
    st.floats(min_value=50.0, max_value=1000.0),
)
def test_cache_capacity_never_exceeded_except_single_oversize(accesses, capacity):
    cache = WorkerCache(capacity_mb=capacity)
    for repo_index, size in accesses:
        repo_id = f"r{repo_index}"
        if not cache.lookup(repo_id):
            cache.insert(repo_id, size)
    assert cache.used_mb <= capacity or len(cache) == 1


@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=200)
)
def test_cache_miss_accounting_consistent(repo_indices):
    """misses == number of inserts; with unit sizes, data volume == misses."""
    cache = WorkerCache()
    for repo_index in repo_indices:
        repo_id = f"r{repo_index}"
        if not cache.lookup(repo_id):
            cache.insert(repo_id, 1.0)
    assert cache.stats.misses == len({f"r{i}" for i in repo_indices})
    assert cache.stats.mb_downloaded == float(cache.stats.misses)
    assert cache.stats.hits + cache.stats.misses == len(repo_indices)


# -- contest --------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e5),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
def test_contest_winner_is_argmin(costs):
    sim = Simulator()
    workers = [f"w{i}" for i in range(len(costs))]
    job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)
    contest = Contest(sim, job, workers)
    for worker, cost in zip(workers, costs):
        contest.add_bid(Bid(job_id="j", worker=worker, cost_s=cost))
    expected = workers[int(np.argmin(costs))]
    assert contest.winner() == expected


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8))
def test_contest_close_outcome_classification(invited, bids):
    sim = Simulator()
    workers = [f"w{i}" for i in range(invited)]
    job = Job(job_id="j", task=TASK_ANALYZER, repo_id="r", size_mb=1.0)
    contest = Contest(sim, job, workers)
    for worker in workers[: min(bids, invited)]:
        contest.add_bid(Bid(job_id="j", worker=worker, cost_s=1.0))
    outcome = contest.close()
    if bids >= invited:
        assert outcome == "full"
    elif bids > 0:
        assert outcome == "timeout"
    else:
        assert outcome == "fallback"


# -- workload -------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=60))
@settings(max_examples=30, deadline=None)
def test_jobstream_poisson_sorted_and_complete(seed, n):
    jobs = [
        Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=1.0)
        for i in range(n)
    ]
    stream = JobStream.poisson(jobs, 1.0, np.random.default_rng(seed))
    times = [a.at for a in stream]
    assert times == sorted(times)
    assert len(stream) == n
    assert {a.job.job_id for a in stream} == {f"j{i}" for i in range(n)}


@given(st.floats(min_value=0.5, max_value=1100.0))
def test_band_of_total_over_positive_sizes(size):
    band = band_of(size)
    assert band.name in {"small", "medium", "large"}
