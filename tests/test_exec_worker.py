"""In-process drive of the real worker loop.

``_run_worker`` normally runs in a spawned child, invisible to
coverage; here we run it as a task against a local asyncio server
acting as the coordinator, on the loop the worker process runs on
(``run_worker_loop``), so every branch of the worker -- cache
hit/miss, data-free jobs, preload, shutdown, the stall hook -- is
exercised in this process.
"""

import asyncio
import hashlib
import statistics
import time

import pytest

from repro.exec import protocol
from repro.exec.handlers import payload_for
from repro.exec.worker import _run_worker, fetch_seconds, process_seconds, run_worker_loop


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
        # A scaled job is tens of microseconds of sleep; epoll rounds every
        # wait up to a whole millisecond, the worker's loop must not.
        async def sleeps():
            took = []
            for _ in range(50):
                started = time.perf_counter()
                await asyncio.sleep(2e-4)
                took.append(time.perf_counter() - started)
            return statistics.median(took)

        assert run_worker_loop(sleeps()) < 7e-4


class Coordinator:
    """The coordinator's half of the socket, driven by the test."""

    def __init__(self):
        self.server = None
        self.port = None
        self.reader = None
        self.writer = None
        self._connected = None

    async def __aenter__(self):
        self._connected = asyncio.get_running_loop().create_future()

        async def on_connect(reader, writer):
            self._connected.set_result((reader, writer))

        self.server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        if self.writer is not None:
            self.writer.close()
        self.server.close()
        await self.server.wait_closed()

    async def accept(self):
        self.reader, self.writer = await asyncio.wait_for(self._connected, 5.0)
        hello = await asyncio.wait_for(protocol.recv(self.reader), 5.0)
        return hello

    async def recv_type(self, wanted, timeout=5.0):
        """Next message of ``wanted`` type, skipping heartbeats etc."""

        async def scan():
            while True:
                message = await protocol.recv(self.reader)
                assert message is not None, f"EOF while waiting for {wanted}"
                if message["type"] == wanted:
                    return message

        return await asyncio.wait_for(scan(), timeout)

    def dispatch(self, job_id, repo_id=None, size_mb=0.0, **fields):
        message = {
            "type": protocol.DISPATCH,
            "job_id": job_id,
            "repo_id": repo_id,
            "size_mb": size_mb,
        }
        message.update(fields)
        protocol.send(self.writer, message)

    def shutdown(self):
        protocol.send(self.writer, {"type": protocol.SHUTDOWN})


def drive(scenario):
    """Run ``scenario(coordinator, spec, cfg) -> None`` against a live
    worker task, tearing everything down on the way out."""

    async def main():
        async with Coordinator() as coordinator:
            worker = asyncio.ensure_future(
                _run_worker("127.0.0.1", coordinator.port, scenario.spec, scenario.cfg)
            )
            try:
                hello = await coordinator.accept()
                assert hello == {
                    "type": protocol.HELLO,
                    "role": protocol.ROLE_WORKER,
                    "name": scenario.spec["name"],
                }
                await scenario(coordinator, worker)
            finally:
                worker.cancel()
                await asyncio.gather(worker, return_exceptions=True)

    run_worker_loop(main())


def scenario(spec_dict=None, cfg_dict=None):
    def wrap(fn):
        fn.spec = spec_dict or spec()
        fn.cfg = cfg_dict or cfg()
        fn.run = lambda: drive(fn)
        return fn

    return wrap


class TestWorkerLoop:
    def test_miss_then_hit_on_the_same_repo(self):
        @scenario()
        async def play(co, worker):
            co.dispatch("j0", repo_id="r1", size_mb=8.0, handler="checksum")
            done = await co.recv_type(protocol.DONE)
            assert done["name"] == "w1"
            assert done["job_id"] == "j0"
            assert done["cache_hit"] is False
            assert done["fetched_mb"] == pytest.approx(8.0)
            assert done["exec_s"] > 0.0
            expected = hashlib.sha256(payload_for("j0", "r1", 8.0)).hexdigest()
            assert done["result"] == expected

            co.dispatch("j1", repo_id="r1", size_mb=8.0)
            done = await co.recv_type(protocol.DONE)
            assert done["cache_hit"] is True
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_preloaded_repo_hits_cold(self):
        @scenario(spec_dict=spec(preload=(("r9", 4.0),)))
        async def play(co, worker):
            co.dispatch("j0", repo_id="r9", size_mb=4.0)
            done = await co.recv_type(protocol.DONE)
            assert done["cache_hit"] is True
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_data_free_job_has_no_cache_verdict(self):
        @scenario()
        async def play(co, worker):
            co.dispatch("j0", handler="noop")
            done = await co.recv_type(protocol.DONE)
            assert done["cache_hit"] is None
            assert done["fetched_mb"] == 0.0

        play.run()

    def test_fifo_execution_order(self):
        @scenario()
        async def play(co, worker):
            for i in range(4):
                co.dispatch(f"j{i}", repo_id="r0", size_mb=1.0)
            order = [(await co.recv_type(protocol.DONE))["job_id"] for _ in range(4)]
            assert order == ["j0", "j1", "j2", "j3"]

        play.run()

    def test_heartbeats_flow_until_shutdown(self):
        @scenario()
        async def play(co, worker):
            await co.recv_type(protocol.HEARTBEAT)
            await co.recv_type(protocol.HEARTBEAT)
            co.shutdown()
            await asyncio.wait_for(worker, 5.0)

        play.run()

    def test_stall_hook_goes_silent_without_a_done(self):
        @scenario(cfg_dict=cfg(stall_after=1, heartbeat_s=0.05))
        async def play(co, worker):
            co.dispatch("j0", repo_id="r0", size_mb=1.0)
            # The job executes, then the worker wedges: no DONE for it,
            # and the heartbeat loop stops on its next wakeup.
            await asyncio.sleep(0.3)
            drained = []
            while True:
                try:
                    message = await asyncio.wait_for(protocol.recv(co.reader), 0.2)
                except asyncio.TimeoutError:
                    break
                assert message is not None
                drained.append(message["type"])
            assert protocol.DONE not in drained
            # Silence: several heartbeat periods pass with no beacon.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(protocol.recv(co.reader), 0.25)

        play.run()
