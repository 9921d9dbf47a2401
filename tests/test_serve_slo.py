"""SLO-tracking tests: the P-squared sketch, latency stats, the tracker
and the frozen report."""

import hashlib

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.serve.slo import LatencyStats, P2Quantile, ServiceReport, SLOTracker
from repro.workload.job import Job
from repro.workload.msr import TASK_ANALYZER
from repro.workload.source import SyntheticJobSource


def make_job(index: int) -> Job:
    return Job(job_id=f"j{index}", task=TASK_ANALYZER)


class TestP2Quantile:
    def test_empty_is_zero(self):
        assert P2Quantile(0.5).value() == 0.0

    def test_exact_below_six_samples(self):
        sketch = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            sketch.observe(x)
        assert sketch.value() == 3.0

    def test_tracks_uniform_median(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.0, 100.0, size=5000)
        sketch = P2Quantile(0.5)
        for x in data:
            sketch.observe(float(x))
        assert sketch.value() == pytest.approx(np.percentile(data, 50), rel=0.05)

    @pytest.mark.parametrize("q,pct", [(0.5, 50), (0.95, 95), (0.99, 99)])
    def test_tracks_lognormal_tails(self, q, pct):
        # Latencies are heavy-tailed; the sketch must stay within a few
        # percent of the exact empirical quantile on a lognormal stream.
        rng = np.random.default_rng(7)
        data = rng.lognormal(mean=1.0, sigma=0.6, size=20_000)
        sketch = P2Quantile(q)
        for x in data:
            sketch.observe(float(x))
        assert sketch.value() == pytest.approx(np.percentile(data, pct), rel=0.05)

    def test_pinned_after_5000_observations(self):
        # Recorded from the commit before the cell search in ``observe``
        # was unrolled: the estimates must not move by one bit.
        rng = np.random.default_rng(5)
        samples = rng.lognormal(1.0, 0.9, 5000).tolist()
        pinned = {0.5: 2.852432833928115, 0.95: 12.652120610115853, 0.99: 21.98242691195253}
        for q, expected in pinned.items():
            sketch = P2Quantile(q)
            for x in samples:
                sketch.observe(x)
            assert sketch.value() == expected

    def test_count(self):
        sketch = P2Quantile(0.9)
        for x in range(17):
            sketch.observe(float(x))
        assert sketch.count == 17

    def test_validates_q(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                P2Quantile(bad)


class TestLatencyStats:
    def test_aggregates(self):
        stats = LatencyStats()
        for x in (1.0, 2.0, 3.0, 4.0):
            stats.observe(x)
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.max == 4.0

    def test_percentiles_are_ordered(self):
        rng = np.random.default_rng(11)
        stats = LatencyStats()
        for x in rng.exponential(10.0, size=3000):
            stats.observe(float(x))
        assert stats.p50.value() <= stats.p95.value() <= stats.p99.value()

    def test_empty_mean_is_zero(self):
        assert LatencyStats().mean == 0.0


class TestSLOTracker:
    def test_measures_sojourn_latency(self):
        tracker = SLOTracker()
        job = make_job(0)
        tracker.job_arrived(10.0, job)
        tracker.job_completed(17.5, job)
        assert tracker.completed == 1
        assert tracker.latency.max == pytest.approx(7.5)

    def test_shed_jobs_count_in_metrics_not_latency(self):
        metrics = MetricsCollector()
        tracker = SLOTracker()
        job = make_job(0)
        tracker.job_arrived(1.0, job)
        tracker.job_shed(job)
        metrics.on_shed(job.job_id, "queue_full", 1.0)
        assert metrics.jobs_shed == 1
        assert tracker.completed == 0
        assert tracker.latency.count == 0

    def test_deadline_misses(self):
        tracker = SLOTracker(deadline_s=5.0)
        fast, slow = make_job(0), make_job(1)
        tracker.job_arrived(0.0, fast)
        tracker.job_completed(4.0, fast)
        tracker.job_arrived(0.0, slow)
        tracker.job_completed(6.0, slow)
        assert tracker.deadline_misses == 1

    def test_unknown_completion_is_ignored(self):
        tracker = SLOTracker()
        tracker.job_completed(1.0, make_job(0))
        assert tracker.completed == 0

    def test_validates_deadline(self):
        with pytest.raises(ValueError):
            SLOTracker(deadline_s=0.0)


def _minted_digest(source: SyntheticJobSource, seed: int, edits=()) -> tuple[str, float]:
    """sha256 over the first 5000 minted jobs, and the generator's next
    draw (the stream must have been consumed exactly as before)."""
    rng = np.random.default_rng(seed)
    edits = dict(edits)
    digest = hashlib.sha256()
    for index in range(5000):
        if index in edits:
            edits[index](source)
        job, tenant = source.next_job(rng)
        digest.update(
            repr(
                (job.job_id, job.repo_id, job.size_mb, job.base_compute_s, job.payload, tenant)
            ).encode()
        )
    return digest.hexdigest(), rng.random()


class TestSyntheticJobSourcePinned:
    """``next_job`` draws from cached CDFs instead of two
    ``Generator.choice(p=...)`` calls; the values below were recorded
    from the commit before that change."""

    def test_single_tenant(self):
        assert _minted_digest(SyntheticJobSource(), 7) == (
            "38c4a45e9d1762c0164a8fe7f479ea9cfd4aef49757cd8face42fba8b6e05913",
            0.3083660045934401,
        )

    def test_weighted_tenants(self):
        source = SyntheticJobSource(
            tenants={"gold": 3.0, "silver": 2.0, "bronze": 1.0}, n_repos=200, alpha=1.1
        )
        assert _minted_digest(source, 11) == (
            "c9a37240c73fff39424e5b63d5bcae023be80e26c9ebd4b388b573dc3a41608c",
            0.007236652366212626,
        )

    def test_tenants_replaced_and_edited_mid_stream(self):
        def replace(source):
            source.tenants = {"a": 1.0, "b": 4.0, "c": 2.0}

        def edit(source):
            source.tenants["a"] = 9.0

        source = SyntheticJobSource(tenants={"a": 1.0, "b": 1.0})
        assert _minted_digest(source, 3, {2500: replace, 3500: edit}) == (
            "e0a038038ba40561bb761f6256ab71ca0b356534eee86a89c715858a8943219d",
            0.19123300570687096,
        )


def make_report(**overrides) -> ServiceReport:
    fields = dict(
        scheduler="bidding",
        arrival="poisson",
        seed=11,
        duration_s=100.0,
        arrivals=200,
        admitted=150,
        completed=150,
        shed=50,
        latency_p50_s=1.0,
        latency_p95_s=2.0,
        latency_p99_s=3.0,
        latency_mean_s=1.2,
        latency_max_s=4.0,
        deadline_misses=0,
        queue_peak=10,
        workers_initial=5,
        workers_final=5,
        workers_peak=5,
        scale_ups=0,
        scale_downs=0,
        cache_hits=100,
        cache_misses=50,
        data_load_mb=1234.5,
    )
    fields.update(overrides)
    return ServiceReport(**fields)


class TestServiceReport:
    def test_derived_rates(self):
        report = make_report()
        assert report.shed_rate == pytest.approx(0.25)
        assert report.throughput_jobs_per_s == pytest.approx(1.5)

    def test_zero_arrivals_is_safe(self):
        report = make_report(arrivals=0, admitted=0, completed=0, shed=0, duration_s=0.0)
        assert report.shed_rate == 0.0
        assert report.throughput_jobs_per_s == 0.0

    def test_to_dict_is_json_shaped(self):
        import json

        payload = make_report().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["shed_rate"] == pytest.approx(0.25)
        assert payload["scheduler"] == "bidding"
