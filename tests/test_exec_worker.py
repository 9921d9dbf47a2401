"""In-process drive of the real worker loop.

``worker_main`` normally runs in a spawned child, invisible to
coverage; here it runs in a thread against a plain listening socket
acting as the coordinator, so every branch of the worker -- cache
hit/miss, data-free jobs, preload, shutdown, the stall hook -- is
exercised in this process.
"""

import hashlib
import multiprocessing
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.exec import protocol
from repro.exec.handlers import payload_for
from repro.exec.worker import Worker, fetch_seconds, process_seconds, worker_main


def spec(**overrides):
    base = {
        "name": "w1",
        "link_latency": 0.0,
        "network_mbps": 100.0,
        "rw_mbps": 500.0,
        "cpu_factor": 1.0,
        "cache_capacity_mb": None,
        "preload": (),
    }
    base.update(overrides)
    return base


def cfg(**overrides):
    base = {"time_scale": 0.001, "heartbeat_s": 0.05}
    base.update(overrides)
    return base


class TestCostModel:
    def test_fetch_is_latency_plus_transfer(self):
        s = spec(link_latency=0.5, network_mbps=10.0)
        assert fetch_seconds(s, 20.0) == pytest.approx(0.5 + 2.0)

    def test_process_is_io_pass_plus_scaled_compute(self):
        s = spec(rw_mbps=100.0, cpu_factor=2.0)
        assert process_seconds(s, 50.0, 1.0) == pytest.approx(0.5 + 0.5)


class TestEventLoop:
    def test_sub_millisecond_sleeps_keep_their_length(self):
        # A scaled job is tens of microseconds of waiting; epoll rounds every
        # wait up to a whole millisecond, the worker's own wait must not.
        ours, theirs = socket.socketpair()
        try:
            worker = Worker(ours, spec(), cfg())
            took = []
            for _ in range(50):
                started = time.perf_counter()
                assert not worker.wait(2e-4)
                took.append(time.perf_counter() - started)
            assert statistics.median(took) < 7e-4
        finally:
            ours.close()
            theirs.close()


class Coordinator:
    """The coordinator's half of the socket, driven by the test."""

    def __init__(self, sock):
        self.sock = sock
        self.parser = protocol.LineParser()
        self.pending = []

    def recv(self, timeout=5.0):
        """The next message, or ``None`` on EOF; ``TimeoutError`` on silence."""
        deadline = time.monotonic() + timeout
        while not self.pending:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no message")
            self.sock.settimeout(left)
            try:
                data = self.sock.recv(1 << 16)
            except socket.timeout:
                raise TimeoutError("no message") from None
            if not data:
                return None
            self.pending.extend(self.parser.feed(data))
        return self.pending.pop(0)

    def recv_type(self, wanted, timeout=5.0):
        """Next message of ``wanted`` type, skipping heartbeats etc."""
        deadline = time.monotonic() + timeout
        while True:
            message = self.recv(max(0.0, deadline - time.monotonic()))
            assert message is not None, f"EOF while waiting for {wanted}"
            if message["type"] == wanted:
                return message

    def dispatch(self, job_id, repo_id=None, size_mb=0.0, **fields):
        message = {
            "type": protocol.DISPATCH,
            "job_id": job_id,
            "repo_id": repo_id,
            "size_mb": size_mb,
        }
        message.update(fields)
        self.sock.sendall(protocol.encode(message))

    def shutdown(self):
        self.sock.sendall(protocol.encode({"type": protocol.SHUTDOWN}))


def drive(scenario):
    """Run ``scenario(coordinator, worker_thread) -> None`` against a live
    worker thread, tearing everything down on the way out."""
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    worker = threading.Thread(
        target=scenario.main, args=("127.0.0.1", port, scenario.spec, scenario.cfg), daemon=True
    )
    worker.start()
    server.settimeout(5.0)
    try:
        conn, _addr = server.accept()
    finally:
        server.close()
    try:
        coordinator = Coordinator(conn)
        hello = coordinator.recv()
        assert hello == {
            "type": protocol.HELLO,
            "role": protocol.ROLE_WORKER,
            "name": scenario.spec["name"],
        }
        scenario(coordinator, worker)
    finally:
        conn.close()  # EOF: the worker loop returns
        worker.join(5.0)
    assert not worker.is_alive()


def scenario(spec_dict=None, cfg_dict=None, main=worker_main):
    def wrap(fn):
        fn.spec = spec_dict or spec()
        fn.cfg = cfg_dict or cfg()
        fn.main = main
        fn.run = lambda: drive(fn)
        return fn

    return wrap


class TestWorkerLoop:
    def test_miss_then_hit_on_the_same_repo(self):
        @scenario()
        def play(co, worker):
            co.dispatch("j0", repo_id="r1", size_mb=8.0, handler="checksum")
            done = co.recv_type(protocol.DONE)
            assert done["name"] == "w1"
            assert done["job_id"] == "j0"
            assert done["cache_hit"] is False
            assert done["fetched_mb"] == pytest.approx(8.0)
            assert done["exec_s"] > 0.0
            expected = hashlib.sha256(payload_for("j0", "r1", 8.0)).hexdigest()
            assert done["result"] == expected

            co.dispatch("j1", repo_id="r1", size_mb=8.0)
            done = co.recv_type(protocol.DONE)
            assert done["cache_hit"] is True
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_preloaded_repo_hits_cold(self):
        @scenario(spec_dict=spec(preload=(("r9", 4.0),)))
        def play(co, worker):
            co.dispatch("j0", repo_id="r9", size_mb=4.0)
            done = co.recv_type(protocol.DONE)
            assert done["cache_hit"] is True
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_data_free_job_has_no_cache_verdict(self):
        @scenario()
        def play(co, worker):
            co.dispatch("j0", handler="noop")
            done = co.recv_type(protocol.DONE)
            assert done["cache_hit"] is None
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_fifo_execution_order(self):
        @scenario()
        def play(co, worker):
            for i in range(4):
                co.dispatch(f"j{i}", repo_id="r0", size_mb=1.0)
            order = [co.recv_type(protocol.DONE)["job_id"] for _ in range(4)]
            assert order == ["j0", "j1", "j2", "j3"]

        play.run()

    def test_a_job_waits_out_its_modelled_time(self):
        # 20 MB over 100 MB/s to fetch, 20 MB over 500 MB/s to process:
        # 0.24 modelled seconds, 24 ms at this scale.
        @scenario(cfg_dict=cfg(time_scale=0.1))
        def play(co, worker):
            co.dispatch("j0", repo_id="r0", size_mb=20.0, handler="noop")
            done = co.recv_type(protocol.DONE)
            assert done["exec_s"] >= 0.024

        play.run()

    def test_heartbeats_flow_until_shutdown(self):
        @scenario()
        def play(co, worker):
            co.recv_type(protocol.HEARTBEAT)
            co.recv_type(protocol.HEARTBEAT)
            co.shutdown()
            worker.join(5.0)
            assert not worker.is_alive()

        play.run()

    def test_stall_hook_goes_silent_without_a_done(self):
        @scenario(cfg_dict=cfg(stall_after=1, heartbeat_s=0.05))
        def play(co, worker):
            co.dispatch("j0", repo_id="r0", size_mb=1.0)
            # The job executes, then the worker wedges: no DONE for it,
            # and no heartbeat after it.
            time.sleep(0.3)
            drained = []
            while True:
                try:
                    message = co.recv(0.2)
                except TimeoutError:
                    break
                assert message is not None
                drained.append(message["type"])
            assert protocol.DONE not in drained
            # Silence: several heartbeat periods pass with no beacon.
            with pytest.raises(TimeoutError):
                co.recv(0.25)
            # Wedged, not deaf: it still obeys shutdown.
            co.shutdown()
            worker.join(5.0)
            assert not worker.is_alive()

        play.run()


#: How late :class:`OversleepingWorker` wakes from every timed-out wait.
OVERSLEEP_S = 0.005
#: A data-free job's modelled time: 10 compute-seconds at ``cfg()``'s 0.001.
MODELLED_S = 0.010


class OversleepingWorker(Worker):
    """A worker on a coarse clock: a wait that times out returns a fixed
    5 ms late (a wake-up on a readable socket is on time)."""

    def wait(self, timeout):
        if super().wait(timeout):
            return True
        time.sleep(OVERSLEEP_S)
        return False


def oversleeping_main(host, port, spec_dict, cfg_dict):
    sock = socket.create_connection((host, port))
    try:
        OversleepingWorker(sock, spec_dict, cfg_dict).run()
    except ConnectionError:  # pragma: no cover - teardown
        pass
    finally:
        sock.close()


def compute_job(co, job_id):
    """Dispatch one data-free job of :data:`MODELLED_S`; return when it was sent."""
    sent = time.monotonic()
    co.dispatch(job_id, handler="noop", base_compute_s=10.0)
    return sent


class TestSchedule:
    """The worker keeps absolute deadlines: a late wake-up is not charged
    to the next job, and no job is cut short by an earlier one's."""

    def test_oversleeps_do_not_add_up_over_queued_jobs(self):
        n = 10

        @scenario(cfg_dict=cfg(heartbeat_s=1.0), main=oversleeping_main)
        def play(co, worker):
            lines = [
                protocol.encode(
                    {"type": protocol.DISPATCH, "job_id": f"j{i}", "handler": "noop",
                     "base_compute_s": 10.0}
                )
                for i in range(n)
            ]
            sent = time.monotonic()
            co.sock.sendall(b"".join(lines))
            for _ in range(n):
                co.recv_type(protocol.DONE)
            took = time.monotonic() - sent
            # Every job overslept, but only the last one's lateness shows
            # (plus one more oversleep of room for the handlers and the
            # threads); a relative wait would pay n of them.
            assert n * MODELLED_S <= took < n * MODELLED_S + 2 * OVERSLEEP_S

        play.run()

    def test_no_done_comes_before_its_modelled_time(self):
        # Queued behind a running job, arriving mid-job, arriving idle:
        # each done lands at least its modelled time after its dispatch.
        gaps = (0.0, 0.0, 0.003, 0.004, 0.05, 0.001)

        @scenario(main=oversleeping_main)
        def play(co, worker):
            sent = {}
            for i, gap in enumerate(gaps):
                time.sleep(gap)
                sent[f"j{i}"] = compute_job(co, f"j{i}")
            for _ in gaps:
                done = co.recv_type(protocol.DONE)
                assert time.monotonic() - sent[done["job_id"]] >= MODELLED_S
                assert done["exec_s"] >= MODELLED_S * (1 - 1e-9)

        play.run()

    def test_a_job_sent_to_an_idle_worker_starts_at_its_arrival(self):
        # The first job's deadline is 100 ms stale when the second
        # arrives: the second still waits out its own modelled time.
        @scenario()
        def play(co, worker):
            compute_job(co, "j0")
            co.recv_type(protocol.DONE)
            time.sleep(0.1)
            sent = compute_job(co, "j1")
            done = co.recv_type(protocol.DONE)
            assert time.monotonic() - sent >= MODELLED_S
            assert MODELLED_S * (1 - 1e-9) <= done["exec_s"] < MODELLED_S + 0.05

        play.run()

    def test_a_queued_job_reports_no_wait(self):
        # j1 is read with j0, before j0 ends: however late the worker wakes
        # for j0's deadline, j1 starts at it and reports no idle time.
        @scenario(main=oversleeping_main)
        def play(co, worker):
            co.sock.sendall(
                b"".join(
                    protocol.encode(
                        {"type": protocol.DISPATCH, "job_id": f"j{i}", "handler": "noop",
                         "base_compute_s": 10.0}
                    )
                    for i in range(2)
                )
            )
            assert [co.recv_type(protocol.DONE)["wait_s"] for _ in range(2)] == [0.0, 0.0]

        play.run()

    def test_a_first_job_reports_no_wait(self):
        # Idle since its hello, the worker has no previous job to wait after.
        @scenario(main=oversleeping_main)
        def play(co, worker):
            time.sleep(0.05)
            compute_job(co, "j0")
            assert co.recv_type(protocol.DONE)["wait_s"] == 0.0

        play.run()

    def test_an_idle_gap_is_reported_as_the_wait(self):
        # j1 is sent 50 ms after j0's done arrived.  The worker ended j0
        # before it sent that done and read j1 after it was sent, so the
        # wait is at least the gap; it is at most the gap plus what the two
        # round trips took beyond their modelled time.
        @scenario(main=oversleeping_main)
        def play(co, worker):
            sent0 = compute_job(co, "j0")
            co.recv_type(protocol.DONE)
            done0_at = time.monotonic()
            time.sleep(0.05)
            sent1 = compute_job(co, "j1")
            wait_s = co.recv_type(protocol.DONE)["wait_s"]
            done1_at = time.monotonic()
            assert sent1 - done0_at <= wait_s
            assert wait_s <= done1_at - sent0 - 2 * MODELLED_S * (1 - 1e-9)

        play.run()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/timerslack_ns"), reason="Linux timer slack only"
    )
    def test_a_spawned_worker_sets_only_its_own_timer_slack(self):
        def slack(pid="self"):
            with open(f"/proc/{pid}/timerslack_ns") as f:
                return int(f.read())

        ours = slack()
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(60.0)
        child = multiprocessing.get_context("spawn").Process(
            target=worker_main, args=("127.0.0.1", server.getsockname()[1], spec(), cfg())
        )
        child.start()
        try:
            conn, _addr = server.accept()
            with conn:
                assert Coordinator(conn).recv()["type"] == protocol.HELLO
                try:
                    theirs = slack(child.pid)
                except PermissionError:
                    pytest.skip("reading another process's timer slack needs CAP_SYS_NICE")
                assert theirs == 1
        finally:
            server.close()
            child.join(10.0)
            if child.is_alive():  # pragma: no cover - teardown
                child.kill()
        assert slack() == ours


class TestSpawnImport:
    def test_a_fresh_worker_import_loads_no_simulator(self):
        # A spawned worker imports only its entry point: the package
        # exports are lazy, so neither the engine nor numpy comes along,
        # and ctypes waits for ``worker_main`` (every workload imports
        # this module at set-up).
        code = (
            "import sys, repro.exec.worker; "
            "print(sorted(m for m in ('numpy', 'repro.engine', 'ctypes') if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_lazy_exports_resolve_and_list(self):
        import repro.data
        import repro.exec

        for package in (repro, repro.exec, repro.data):
            for name in package.__all__:
                assert getattr(package, name) is not None
                assert name in dir(package)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.exec.nope
