"""The real worker: one OS process per fleet member.

Each worker connects back to the coordinator's loopback socket, says
``hello``, and then runs three concurrent loops on its own asyncio event
loop:

* **heartbeat** -- a periodic liveness beacon; the coordinator evicts a
  worker after ``miss_limit`` missed beats (see
  :class:`~repro.exec.pool.ExecBackend`);
* **reader** -- consumes ``dispatch`` messages into a local FIFO and
  obeys ``shutdown``;
* **executor** -- drains the FIFO one job at a time, mirroring the sim
  worker's exact cache semantics (:class:`~repro.data.cache.WorkerCache`
  is reused *verbatim*): lookup -> hit, or miss -> fetch -> insert.
  Timing follows the sim's cost model scaled by ``time_scale`` --
  ``(link_latency + size/network) * scale`` to fetch,
  ``(size/rw + compute/cpu_factor) * scale`` to process -- plus genuine
  CPU work through the sandboxed handler registry
  (:mod:`repro.exec.handlers`).

Because the coordinator dispatches each worker's jobs in plan order and
the executor is FIFO, the per-worker cache hit/miss *sequence* here must
equal the sim's -- one of the differential harness's strongest checks.

A process that sleeps modelled durations needs a selector finer than the
shortest scaled one: ``epoll``, asyncio's default on Linux, rounds every
timeout up to a whole millisecond, so the worker runs on
:func:`run_worker_loop`, whose ``select`` keeps microseconds (a worker
holds one socket).  The coordinator keeps the default loop: it wakes on
socket reads, never on a modelled duration, and may hold many sockets.

``stall_after`` (a test/chaos hook) makes the process fall silent --
no heartbeats, no progress -- after N completions, exercising the
coordinator's miss-based eviction exactly the way a livelocked or
wedged worker would.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine

from repro.data.cache import WorkerCache
from repro.exec import protocol
from repro.exec.handlers import payload_for, run_handler


def fetch_seconds(spec: dict[str, Any], size_mb: float) -> float:
    """Unscaled sim download time for ``size_mb`` on this worker."""
    return spec["link_latency"] + size_mb / spec["network_mbps"]


def process_seconds(spec: dict[str, Any], size_mb: float, base_compute_s: float) -> float:
    """Unscaled sim processing time (I/O pass + fixed compute)."""
    return size_mb / spec["rw_mbps"] + base_compute_s / spec["cpu_factor"]


async def _run_worker(host: str, port: int, spec: dict[str, Any], cfg: dict[str, Any]) -> None:
    name = spec["name"]
    reader, writer = await asyncio.open_connection(host, port)
    protocol.send(writer, {"type": protocol.HELLO, "role": protocol.ROLE_WORKER, "name": name})
    await writer.drain()

    capacity = spec.get("cache_capacity_mb")
    cache = WorkerCache(capacity_mb=float("inf") if capacity is None else capacity)
    cache.preload({repo: size for repo, size in spec.get("preload", ())})

    queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
    time_scale = cfg["time_scale"]
    heartbeat_s = cfg["heartbeat_s"]
    stall_after = cfg.get("stall_after")  # completions before going silent
    stopping = asyncio.Event()
    stalled = asyncio.Event()
    completed = 0

    async def heartbeats() -> None:
        while not stopping.is_set() and not stalled.is_set():
            protocol.send(writer, {"type": protocol.HEARTBEAT, "name": name})
            await writer.drain()
            await asyncio.sleep(heartbeat_s)

    async def read_loop() -> None:
        while not stopping.is_set():
            message = await protocol.recv(reader)
            if message is None or message["type"] == protocol.SHUTDOWN:
                stopping.set()
                return
            if message["type"] == protocol.DISPATCH:
                queue.put_nowait(message)

    async def execute_one(message: dict[str, Any]) -> None:
        nonlocal completed
        job_id = message["job_id"]
        repo_id = message.get("repo_id")
        size_mb = message.get("size_mb", 0.0)
        loop = asyncio.get_running_loop()
        started = loop.time()
        cache_hit = None
        fetched_mb = 0.0
        if repo_id is not None:
            if cache.lookup(repo_id):
                cache_hit = True
            else:
                cache_hit = False
                await asyncio.sleep(fetch_seconds(spec, size_mb) * time_scale)
                cache.insert(repo_id, size_mb)
                fetched_mb = size_mb
        await asyncio.sleep(
            process_seconds(spec, size_mb, message.get("base_compute_s", 0.0)) * time_scale
        )
        digest = run_handler(
            message.get("handler", "checksum"), payload_for(job_id, repo_id, size_mb)
        )
        completed += 1
        if stall_after is not None and completed >= stall_after:
            # Wedge: no done message, no further beats, no progress.
            stalled.set()
            return
        protocol.send(
            writer,
            {
                "type": protocol.DONE,
                "name": name,
                "job_id": job_id,
                "cache_hit": cache_hit,
                "fetched_mb": fetched_mb,
                "exec_s": loop.time() - started,
                "result": digest,
            },
        )
        await writer.drain()

    async def executor() -> None:
        while not stopping.is_set() and not stalled.is_set():
            message = await queue.get()
            await execute_one(message)

    tasks = [
        asyncio.ensure_future(heartbeats()),
        asyncio.ensure_future(read_loop()),
        asyncio.ensure_future(executor()),
    ]
    try:
        await stopping.wait()
    finally:  # also when this worker is itself cancelled
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()


def run_worker_loop(main: Coroutine[Any, Any, Any]) -> Any:
    """Run ``main`` on a new loop with microsecond timeouts (module docstring)."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(main)
    finally:
        loop.close()


def worker_main(host: str, port: int, spec: dict[str, Any], cfg: dict[str, Any]) -> None:
    """Process entry point (must stay importable for ``spawn``)."""
    try:
        run_worker_loop(_run_worker(host, port, spec, cfg))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
