"""Sim-time attribution: totals, compute derivation, rendering."""

from repro.metrics.trace import Trace
from repro.obs import attribute, render_attribution


def two_job_trace() -> Trace:
    trace = Trace()
    # j1: 1s scheduling, 1s queue, 4s execute containing a 3s transfer.
    trace.record(0.0, "submitted", "j1")
    trace.record(1.0, "assigned", "j1", "w1")
    trace.record(2.0, "started", "j1", "w1")
    trace.record(2.0, "download_started", "j1", "w1")
    trace.record(5.0, "download_finished", "j1", "w1", 42.0)
    trace.record(6.0, "completed", "j1", "w1")
    # j2: instant assignment, pure compute.
    trace.record(0.0, "submitted", "j2")
    trace.record(0.0, "assigned", "j2", "w2")
    trace.record(0.0, "started", "j2", "w2")
    trace.record(2.0, "completed", "j2", "w2")
    return trace


class TestAttribute:
    def test_component_totals(self):
        trace = two_job_trace()
        attribution = attribute(trace, makespan=6.0, worker_count=2)
        assert attribution.jobs == 2
        assert attribution.row("job").total_s == 8.0  # 6 + 2
        assert attribution.row("schedule").total_s == 1.0
        assert attribution.row("queued").total_s == 1.0
        assert attribution.row("execute").total_s == 6.0  # 4 + 2
        assert attribution.row("transfer").total_s == 3.0
        # compute = per-job max(0, execute - transfer) = (4-3) + 2.
        assert attribution.row("compute").total_s == 3.0
        assert attribution.row("compute").count == 2

    def test_compute_clamped_at_zero(self):
        trace = Trace()
        trace.record(0.0, "submitted", "j1")
        trace.record(0.0, "assigned", "j1", "w1")
        trace.record(0.0, "started", "j1", "w1")
        # Transfer longer than the execute window (prefetch pattern).
        trace.record(0.0, "download_started", "j1", "w1")
        trace.record(5.0, "download_finished", "j1", "w1", 10.0)
        trace.record(1.0, "completed", "j1", "w1")
        attribution = attribute(trace)
        assert attribution.row("compute").total_s == 0.0

    def test_fleet_busy_fraction(self):
        trace = two_job_trace()
        attribution = attribute(trace, makespan=6.0, worker_count=2)
        # 6 execute-seconds over 2 workers * 6s of wall time.
        assert attribution.fleet_busy_fraction == 6.0 / 12.0
        # Without a worker count the fraction is unknown, not wrong.
        assert attribute(trace, makespan=6.0).fleet_busy_fraction is None

    def test_mean_uses_component_count(self):
        attribution = attribute(two_job_trace())
        transfer = attribution.row("transfer")
        assert transfer.count == 1
        assert transfer.mean_s == 3.0

    def test_rows_follow_layout_order(self):
        attribution = attribute(two_job_trace())
        names = [row.component for row in attribution.rows]
        assert names == ["job", "schedule", "queued", "execute", "transfer", "compute"]

    def test_empty_trace(self):
        attribution = attribute(Trace())
        assert attribution.rows == ()
        assert attribution.jobs == 0


class TestRender:
    def test_render_contains_rows_and_bars(self):
        trace = two_job_trace()
        attribution = attribute(trace, makespan=6.0, worker_count=2)
        text = render_attribution(attribution)
        assert "time attribution (2 jobs" in text
        assert "transfer" in text and "compute" in text
        assert "#" in text  # proportional bars
        assert "fleet busy fraction: 50.0%" in text
