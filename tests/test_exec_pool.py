"""The real coordinator against real OS processes.

Hand-built two-worker plans with wide timing margins: worker ``a``
carries deliberately slow jobs (scaled compute sleeps), worker ``b``
near-instant ones, so races between "b finishes its burst" and "a is
still grinding" resolve the same way on any machine.
"""

import multiprocessing
import threading
import time

import pytest

from repro.exec.plan import Decision, ExecPlan, PlanJob, PlanWorker
from repro.exec.pool import ExecBackend, ExecConfig, ExecError, KillSpec, _WorkerState
from repro.exec.protocol import ControlClient, ProtocolError

TIME_SCALE = 0.002
FAST_SPEC = dict(network_mbps=1000.0, rw_mbps=1000.0, cpu_factor=1.0, link_latency=0.0)
#: 100 simulated compute-seconds -> 0.2 wall-seconds at TIME_SCALE.
SLOW_COMPUTE_S = 100.0


def hand_plan(slow_on_a=2, fast_on_b=2, preload_b=()):
    """``slow_on_a`` jobs pinned to ``a`` (0.2 s wall each), ``fast_on_b``
    near-instant jobs pinned to ``b``; decisions interleave a-first."""
    workers = (
        PlanWorker(name="a", **FAST_SPEC),
        PlanWorker(name="b", **FAST_SPEC, preload=tuple(preload_b)),
    )
    jobs = []
    decisions = []
    seq = 0
    for i in range(slow_on_a):
        jobs.append(
            PlanJob(
                job_id=f"a{i}",
                task="t",
                repo_id="ra",
                size_mb=2.0,
                base_compute_s=SLOW_COMPUTE_S,
                handler="noop",
            )
        )
        decisions.append(Decision(seq=seq, job_id=f"a{i}", worker="a", at_s=0.0))
        seq += 1
    for i in range(fast_on_b):
        jobs.append(
            PlanJob(job_id=f"b{i}", task="t", repo_id="rb", size_mb=1.0, handler="noop")
        )
        decisions.append(Decision(seq=seq, job_id=f"b{i}", worker="b", at_s=0.0))
        seq += 1
    return ExecPlan(
        scheduler="hand",
        seed=0,
        workers=workers,
        jobs=tuple(jobs),
        decisions=tuple(decisions),
    )


def instant_plan(n):
    """``n`` near-instant data-free jobs, bound to ``a`` and ``b`` in turn."""
    return ExecPlan(
        scheduler="hand",
        seed=0,
        workers=(PlanWorker(name="a", **FAST_SPEC), PlanWorker(name="b", **FAST_SPEC)),
        jobs=tuple(PlanJob(job_id=f"j{i}", task="t", handler="noop") for i in range(n)),
        decisions=tuple(
            Decision(seq=i, job_id=f"j{i}", worker="ab"[i % 2], at_s=0.0) for i in range(n)
        ),
    )


def config(**overrides):
    base = dict(time_scale=TIME_SCALE, run_timeout_s=60.0, trace=False)
    base.update(overrides)
    return ExecConfig(**base)


class TestCleanRun:
    def test_plan_is_preserved_on_real_processes(self):
        plan = hand_plan(slow_on_a=2, fast_on_b=3)
        backend = ExecBackend(plan, config())
        report = backend.run()

        assert report.conserved
        assert report.admitted == report.completed == 5
        assert report.failed == report.crashes == 0
        assert report.redispatches == report.duplicates_suppressed == 0
        # The assignment log IS the plan, nothing re-dispatched.
        assert report.assigned == tuple(
            (d.job_id, d.worker, False) for d in plan.decisions
        )
        # Per-worker completion order follows plan order (FIFO workers).
        assert report.per_worker_completed == {
            name: tuple(ids) for name, ids in plan.per_worker_order().items()
        }
        # Each worker misses its repo once, then hits it.
        assert report.per_worker_cache == {"a": (1, 1), "b": (2, 1)}
        assert report.cache_hits == 3 and report.cache_misses == 2
        assert report.data_load_mb == pytest.approx(2.0 + 1.0)
        assert report.wall_s > 0 and report.throughput_jobs_per_s > 0

    def test_preload_makes_the_first_touch_a_hit(self):
        plan = hand_plan(slow_on_a=0, fast_on_b=2, preload_b=(("rb", 1.0),))
        report = ExecBackend(plan, config()).run()
        assert report.per_worker_cache["b"] == (2, 0)
        assert report.data_load_mb == 0.0


class TestFaults:
    def test_sigkill_mid_run_loses_no_jobs(self):
        # b's two instant jobs complete first; the kill then fires while
        # a is still grinding its first slow job, orphaning all three.
        plan = hand_plan(slow_on_a=3, fast_on_b=2)
        backend = ExecBackend(plan, config(), kills=(KillSpec("a", after_done=2),))
        report = backend.run()

        assert report.crashes == 1
        assert report.conserved
        assert report.completed == 5 and report.failed == 0
        assert report.redispatches == 3
        # The orphans re-homed onto the survivor and finished there.
        redispatched = [j for j, w, r in report.assigned if r]
        assert sorted(redispatched) == ["a0", "a1", "a2"]
        assert all(w == "b" for j, w, r in report.assigned if r)

    def test_wedged_worker_is_evicted_by_missed_heartbeats(self):
        # a executes one fast job, then wedges silently (no DONE, no
        # beats); the watchdog evicts it and its jobs re-home to b.
        plan = hand_plan(slow_on_a=0, fast_on_b=2)
        wedge_jobs = tuple(
            PlanJob(job_id=f"w{i}", task="t", repo_id="ra", size_mb=1.0, handler="noop")
            for i in range(2)
        )
        plan = ExecPlan(
            scheduler="hand",
            seed=0,
            workers=plan.workers,
            jobs=plan.jobs + wedge_jobs,
            decisions=plan.decisions
            + tuple(
                Decision(seq=2 + i, job_id=f"w{i}", worker="a", at_s=0.0)
                for i in range(2)
            ),
        )
        backend = ExecBackend(
            plan,
            config(heartbeat_s=0.1, miss_limit=3, stall_after=(("a", 1),)),
        )
        report = backend.run()

        assert report.crashes == 1
        assert report.conserved
        assert report.completed == 4 and report.failed == 0
        assert report.duplicates_suppressed == 0
        assert report.redispatches == 2
        assert report.per_worker_completed["a"] == ()

    def test_a_failed_spawn_reaches_the_caller(self, monkeypatch):
        # a's process starts, b's start() raises: teardown must reap a and
        # skip b, so the caller sees the spawn error, not a join() assert.
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(proc):
            if started:
                raise OSError("spawn refused")
            started.append(proc)
            real_start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        backend = ExecBackend(hand_plan(), config())
        with pytest.raises(OSError, match="spawn refused"):
            backend.run()
        assert not started[0].is_alive()
        assert backend.workers["b"].proc.pid is None

    def test_kill_targeting_unknown_worker_is_rejected_up_front(self):
        with pytest.raises(ExecError, match="unknown worker 'ghost'"):
            ExecBackend(hand_plan(), config(), kills=(KillSpec("ghost", 1),))


class TestDispatchDepth:
    """Each worker's window starts at ``inflight_per_worker`` and deepens
    when the worker reports idling before a job the window held back."""

    def test_near_instant_jobs_deepen_the_window(self):
        plan = instant_plan(400)
        backend = ExecBackend(plan, config(time_scale=1e-4))
        report = backend.run()

        assert report.conserved and report.completed == 400
        assert report.per_worker_completed == {
            name: tuple(ids) for name, ids in plan.per_worker_order().items()
        }
        stats = backend.stats()["workers"]
        for name in ("a", "b"):
            assert backend.workers[name].depth > 2
            assert stats[name]["depth"] == backend.workers[name].depth
            assert stats[name]["wait_ms"] > 0.0

    def test_a_slow_worker_stays_at_the_floor(self):
        # a's next job always arrives while its current one still runs.
        backend = ExecBackend(hand_plan(slow_on_a=3, fast_on_b=2), config())
        report = backend.run()

        assert report.conserved and report.completed == 5
        assert backend.workers["a"].depth == 2
        assert backend.stats()["workers"]["a"]["depth"] == 2

    def test_a_wait_for_a_fresh_bind_keeps_the_window(self):
        # b idles once its two jobs are done; three jobs bound to it then
        # fill its window and its backlog.  b waited for x0 because x0 did
        # not exist yet, not because the window held it: no deepening.
        script = tuple(
            (2, {"type": "dispatch", "job_id": f"x{i}", "worker": "b"}) for i in range(3)
        )
        backend = ExecBackend(hand_plan(slow_on_a=0, fast_on_b=2), config(), script=script)
        report = backend.run()

        assert report.conserved and report.completed == 5
        assert report.per_worker_completed["b"] == ("b0", "b1", "x0", "x1", "x2")
        assert backend.workers["b"].wait_s > 0.0
        assert backend.workers["b"].depth == 2

    def test_a_kill_above_the_floor_conserves_every_job(self):
        backend = ExecBackend(
            instant_plan(400), config(time_scale=1e-4), kills=(KillSpec("a", after_done=100),)
        )
        report = backend.run()

        assert backend.workers["a"].depth > 2
        assert report.crashes == 1
        assert report.conserved
        assert report.completed == 400 and report.failed == 0
        assert report.redispatches > 0
        assert all(w == "b" for _j, w, redispatch in report.assigned if redispatch)


class TestHandoff:
    """A ``done``'s handoff sample is the round trip alone: its arrival
    minus its dispatch, minus the time the job sat queued in the worker
    (``queued_s``) and the time it ran (``exec_s``)."""

    def fed(self, message):
        """A coordinator with no processes: ``j0`` bound to ``a`` at 1.0 s,
        its ``done`` fed at 1.010 s."""
        backend = ExecBackend(instant_plan(2), config())
        clock = [0.0]
        backend._now = lambda: clock[0]
        for plan_worker in backend.plan.workers:
            backend.workers[plan_worker.name] = _WorkerState(plan_worker, 2)
        for plan_job in backend.plan.jobs:
            backend._admit(plan_job, 0.0)
        clock[0] = 1.0
        backend._bind(backend._jobs["j0"], "a", redispatch=False)
        clock[0] = 1.010
        backend._on_done(
            backend.workers["a"], {"type": "done", "name": "a", "job_id": "j0", **message}
        )
        return backend

    def test_the_time_queued_in_the_worker_is_not_handoff(self):
        backend = self.fed({"exec_s": 0.002, "wait_s": 0.0, "queued_s": 0.005})

        assert backend.completed == 1
        handoff = backend.stats()["handoff_ms"]
        assert handoff["count"] == 1
        assert handoff["p50"] == pytest.approx(3.0)
        assert backend._report(1.0).handoff_max_s == pytest.approx(0.003)

    def test_a_done_without_queued_s_reads_as_zero(self):
        backend = self.fed({"exec_s": 0.002})

        assert backend.stats()["handoff_ms"]["p50"] == pytest.approx(8.0)


class TestScriptedControl:
    def test_drain_rehomes_the_undelivered_backlog(self):
        # a: 4 slow jobs, in-flight cap 1 -> 3 sit in its ready queue.
        # b's instant job completes first and trips the drain script.
        plan = hand_plan(slow_on_a=4, fast_on_b=1)
        backend = ExecBackend(
            plan,
            config(inflight_per_worker=1),
            script=((1, {"type": "drain", "worker": "a"}),),
        )
        report = backend.run()

        assert report.conserved
        assert report.completed == 5 and report.failed == 0
        assert backend.workers["a"].draining
        # The in-flight job finished on a; the queued three moved to b.
        assert report.per_worker_completed["a"] == ("a0",)
        assert report.redispatches == 3
        moved = [j for j, w, r in report.assigned if r]
        assert sorted(moved) == ["a1", "a2", "a3"]

    def test_rebind_moves_one_queued_job(self):
        plan = hand_plan(slow_on_a=3, fast_on_b=1)
        backend = ExecBackend(
            plan,
            config(inflight_per_worker=1),
            script=((1, {"type": "rebind", "job_id": "a2", "worker": "b"}),),
        )
        report = backend.run()

        assert report.conserved and report.completed == 4
        assert ("a2", "b", True) in report.assigned
        assert "a2" in report.per_worker_completed["b"]
        assert report.per_worker_completed["a"] == ("a0", "a1")


class TestControlSocket:
    def test_live_stats_dispatch_and_error_replies(self):
        # Enough slow work on a to keep the pool alive while the client
        # talks to it (4 x 0.2 s wall).
        plan = hand_plan(slow_on_a=4, fast_on_b=0)
        backend = ExecBackend(plan, config(inflight_per_worker=1))
        runner = threading.Thread(target=lambda: setattr(backend, "_result", backend.run()))
        runner.start()
        try:
            deadline = time.monotonic() + 30.0
            while backend.port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert backend.port is not None, "coordinator never bound its socket"
            # Also wait until intake ran, so stats sees admitted jobs.
            while backend.admitted == 0 and time.monotonic() < deadline:
                time.sleep(0.01)

            with ControlClient("127.0.0.1", backend.port, timeout_s=10.0) as client:
                stats = client.stats()
                assert stats["scheduler"] == "hand"
                assert stats["admitted"] == 4
                assert set(stats["workers"]) == {"a", "b"}

                reply = client.request(
                    "dispatch", job_id="extra", worker="b", handler="noop"
                )
                assert reply["worker"] == "b"

                with pytest.raises(ProtocolError, match="unknown worker"):
                    client.request("dispatch", job_id="extra2", worker="ghost")
                with pytest.raises(ProtocolError, match="unknown control verb"):
                    client.request("frobnicate")
        finally:
            runner.join(timeout=60.0)
        assert not runner.is_alive()
        report = backend._result
        assert report.conserved
        assert report.admitted == 5 and report.completed == 5
        assert "extra" in report.per_worker_completed["b"]

    def test_stats_report_the_coordinators_half_of_a_job(self):
        # b's two instant jobs finish while a grinds its slow ones, so a
        # client reads the handoff and write counters of a pool mid-run.
        plan = hand_plan(slow_on_a=4, fast_on_b=2)
        backend = ExecBackend(plan, config(inflight_per_worker=1))
        runner = threading.Thread(target=lambda: setattr(backend, "_result", backend.run()))
        runner.start()
        try:
            deadline = time.monotonic() + 30.0
            while backend.completed < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert backend.completed >= 2, "the fast jobs never completed"
            with ControlClient("127.0.0.1", backend.port, timeout_s=10.0) as client:
                stats = client.stats()
        finally:
            runner.join(timeout=60.0)
        assert not runner.is_alive()
        handoff = stats["handoff_ms"]
        assert set(handoff) == {"count", "p50", "p90", "max"}
        assert handoff["count"] == stats["completed"] >= 2
        assert 0.0 <= handoff["p50"] <= handoff["p90"] <= handoff["max"]
        # Six dispatches have gone out in at least two writes (one per
        # worker), and every dispatch line is tens of bytes.
        assert 0.0 < stats["writes_per_job"] <= 6 / stats["completed"]
        assert stats["write_bytes_per_job"] > 50 * stats["writes_per_job"]
        assert backend._result.conserved


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(time_scale=0.0),
            dict(heartbeat_s=-1.0),
            dict(miss_limit=0),
            dict(inflight_per_worker=0),
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            ExecConfig(**bad)


class TestObservability:
    """Wall-clock spans + decision-ledger parity on the real backend."""

    def test_span_tree_links_submit_to_execute_end_to_end(self):
        from repro.obs import build_spans, span_coverage

        plan = hand_plan(slow_on_a=2, fast_on_b=2)
        backend = ExecBackend(plan, config(trace=True))
        report = backend.run()
        assert report.completed == 4

        trace = backend.metrics.trace
        spans = build_spans(trace)
        coverage = span_coverage(trace, spans)
        assert coverage.completed_jobs == 4
        # Every completed job's wall-clock span path must connect
        # submit -> execute with no gaps.
        assert coverage.fraction == 1.0, coverage.disconnected

        by_job = {}
        for span in spans:
            by_job.setdefault(span.trace_id, {})[span.name] = span
        for job in plan.jobs:
            tree = by_job[job.job_id]
            root, execute = tree["job"], tree["execute"]
            assert execute.parent_id == root.span_id
            assert root.start <= execute.start <= execute.end <= root.end
            # The execute span runs on the worker the plan pinned.
            planned = next(d.worker for d in plan.decisions if d.job_id == job.job_id)
            assert execute.track == planned

    def test_ledger_parity_with_assignment_log(self):
        plan = hand_plan(slow_on_a=1, fast_on_b=3)
        backend = ExecBackend(plan, config(trace=True))
        report = backend.run()

        ledger = backend.ledger
        assert ledger is not None
        # One wall-clock record per bind, in the same order as the
        # report's assignment log, all plan replays on a clean run.
        assert [
            (r.job_id, r.worker, r.kind == "redispatch") for r in ledger.records
        ] == list(report.assigned)
        assert all(r.policy == "exec" and r.kind == "replay" for r in ledger.records)
        # Candidates cover the whole fleet with live queue/locality facts.
        for record in ledger.records:
            assert {c.worker for c in record.candidates} == {"a", "b"}
            assert all(c.queue_depth is not None for c in record.candidates)

    def test_ledger_off_with_trace_off(self):
        backend = ExecBackend(hand_plan(1, 1), config(trace=False))
        backend.run()
        assert backend.ledger is None
