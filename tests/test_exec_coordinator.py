"""The coordinator's connections: what each peer may send, and what a
broken peer costs.

The workers here are threads running the real worker loop (or a
misbehaving stand-in) instead of spawned processes, so each test drives
the coordinator's socket side in about a second at most.
"""

import itertools
import multiprocessing
import socket
import threading
import time

import pytest

from repro.exec import protocol
from repro.exec.plan import Decision, ExecPlan, PlanJob, PlanWorker
from repro.exec.pool import ExecBackend, ExecConfig, ExecError
from repro.exec.protocol import ControlClient
from repro.exec.worker import worker_main

SPEC = dict(network_mbps=1000.0, rw_mbps=1000.0, cpu_factor=1.0, link_latency=0.0)


class ThreadProcess:
    """Stands in for a spawned worker process: the target runs in a thread.

    A thread cannot be killed; a worker the coordinator gives up on is
    cut off by its connection closing instead.
    """

    _pids = itertools.count(1)

    def __init__(self, target, args, daemon=True, name=None):
        self.thread = threading.Thread(target=target, args=args, daemon=True, name=name)
        self.pid = None

    def start(self):
        self.thread.start()
        self.pid = next(self._pids)

    def is_alive(self):
        return self.thread.is_alive()

    def kill(self):
        pass

    terminate = kill

    def join(self, timeout=None):
        self.thread.join(timeout)


@pytest.fixture
def threaded_workers(monkeypatch):
    """Run every worker in a thread; ``targets[name]`` replaces the loop."""
    targets = {}

    class Context:
        @staticmethod
        def Process(target, args, daemon=True, name=None):
            return ThreadProcess(targets.get(args[2]["name"], target), args, daemon, name)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: Context)
    return targets


def plan(jobs_on_a=3, jobs_on_b=3, compute_on_a=0.0):
    jobs, decisions = [], []
    for worker, count, compute in (("a", jobs_on_a, compute_on_a), ("b", jobs_on_b, 0.0)):
        for i in range(count):
            job_id = f"{worker}{i}"
            jobs.append(
                PlanJob(
                    job_id=job_id,
                    task="t",
                    repo_id=f"r{worker}",
                    size_mb=1.0,
                    base_compute_s=compute,
                    handler="noop",
                )
            )
            decisions.append(Decision(seq=len(decisions), job_id=job_id, worker=worker, at_s=0.0))
    return ExecPlan(
        scheduler="hand",
        seed=0,
        workers=(PlanWorker(name="a", **SPEC), PlanWorker(name="b", **SPEC)),
        jobs=tuple(jobs),
        decisions=tuple(decisions),
    )


def run_in_background(backend):
    """Start ``backend.run()`` in a thread; return it once intake ran."""
    runner = threading.Thread(target=lambda: setattr(backend, "result", backend.run()))
    runner.start()
    deadline = time.monotonic() + 10.0
    while backend.admitted == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert backend.port is not None and backend.admitted > 0, "coordinator never started"
    return runner


def malformed_after_first_dispatch(host, port, spec, cfg):
    """A worker that says hello, waits for work, then breaks the framing."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(protocol.encode({"type": "hello", "role": "worker", "name": spec["name"]}))
        received = b""
        while b'"type":"dispatch"' not in received:
            received += sock.recv(1 << 16)
        sock.sendall(b"{nope\n")
        while sock.recv(1 << 16):  # until the coordinator hangs up
            pass


def completes_a_job_it_was_never_sent(host, port, spec, cfg):
    """A worker that, once it has work, reports a ``done`` for a job that
    does not exist."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(protocol.encode({"type": "hello", "role": "worker", "name": spec["name"]}))
        sock.recv(1 << 16)  # its dispatches
        sock.sendall(protocol.encode({"type": "done", "name": spec["name"], "job_id": "ghost"}))
        sock.recv(1 << 16)  # until the coordinator hangs up


def hello_and_leave(host, port, spec, cfg):
    """A worker that registers and drops its connection at once."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(protocol.encode({"type": "hello", "role": "worker", "name": spec["name"]}))


def registers_late(host, port, spec, cfg):
    """The real worker loop, connecting once the other worker is gone."""
    time.sleep(0.3)
    worker_main(host, port, spec, cfg)


class TestWorkerLostBeforeTheBind:
    def test_its_plan_decisions_are_rehomed(self, threaded_workers):
        # a is lost between its hello and the bind: its three decisions
        # go where a re-dispatch would, instead of into a dead ``ready``.
        threaded_workers["a"] = hello_and_leave
        threaded_workers["b"] = registers_late
        cfg = ExecConfig(time_scale=0.001, run_timeout_s=5.0, trace=False)
        backend = ExecBackend(plan(jobs_on_a=3, jobs_on_b=3), cfg)
        report = backend.run()

        assert report.crashes == 1 and not backend.workers["a"].alive
        assert report.conserved and report.completed == 6 and report.failed == 0
        assert sorted(j for j, w, r in report.assigned if r) == ["a0", "a1", "a2"]
        assert report.per_worker_completed["a"] == ()
        assert len(report.per_worker_completed["b"]) == 6


class TestWorkerProtocolError:
    def test_a_malformed_line_loses_the_worker_at_once(self, threaded_workers):
        # The heartbeat budget is 10 s; the run must not wait for it.
        threaded_workers["a"] = malformed_after_first_dispatch
        cfg = ExecConfig(
            time_scale=0.001, heartbeat_s=0.5, miss_limit=20, run_timeout_s=5.0, trace=False
        )
        backend = ExecBackend(plan(jobs_on_a=3, jobs_on_b=3), cfg)
        started = time.monotonic()
        report = backend.run()

        assert report.wall_s < cfg.heartbeat_s * cfg.miss_limit
        assert time.monotonic() - started < cfg.heartbeat_s * cfg.miss_limit
        assert report.crashes == 1
        assert not backend.workers["a"].alive
        assert report.conserved and report.completed == 6 and report.failed == 0
        # Both in-flight orphans and the undelivered one moved to b.
        assert report.redispatches == 3
        assert sorted(j for j, w, r in report.assigned if r) == ["a0", "a1", "a2"]
        assert report.per_worker_completed["a"] == ()
        assert len(report.per_worker_completed["b"]) == 6

    def test_an_error_inside_a_handler_ends_the_run_with_it(self, threaded_workers):
        threaded_workers["a"] = completes_a_job_it_was_never_sent
        backend = ExecBackend(plan(), ExecConfig(time_scale=0.001, run_timeout_s=5.0))
        with pytest.raises(ExecError, match="completed 'ghost' it does not own"):
            backend.run()


class TestControlLines:
    def test_a_request_past_64_kib_is_answered(self, threaded_workers):
        # 4 jobs of 0.2 wall-seconds each on a keep the pool alive.
        backend = ExecBackend(
            plan(jobs_on_a=4, jobs_on_b=0, compute_on_a=100.0),
            ExecConfig(time_scale=0.002, inflight_per_worker=1, trace=False),
        )
        runner = run_in_background(backend)
        try:
            with ControlClient("127.0.0.1", backend.port, timeout_s=10.0) as client:
                stats = client.request(protocol.STATS, pad="x" * 70_000)["stats"]
                assert stats["admitted"] == 4
                assert client.stats()["scheduler"] == "hand"
        finally:
            runner.join(timeout=30.0)
        assert backend.result.conserved and backend.result.completed == 4

    def test_a_line_past_max_line_drops_the_peer_not_the_run(self, threaded_workers):
        backend = ExecBackend(
            plan(jobs_on_a=4, jobs_on_b=0, compute_on_a=100.0),
            ExecConfig(time_scale=0.002, inflight_per_worker=1, trace=False),
        )
        runner = run_in_background(backend)
        try:
            with socket.create_connection(("127.0.0.1", backend.port), timeout=10.0) as sock:
                sock.sendall(protocol.encode({"type": "hello", "role": "control"}))
                try:  # no newline: the unterminated buffer outgrows MAX_LINE
                    sock.sendall(b'{"type":"stats","pad":"' + b"x" * (protocol.MAX_LINE + 16))
                    assert sock.recv(1 << 16) == b""
                except ConnectionError:  # reset: the coordinator hung up mid-send
                    pass
        finally:
            runner.join(timeout=30.0)
        report = backend.result
        assert report.conserved and report.completed == 4 and report.crashes == 0
