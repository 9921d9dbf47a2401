"""The real worker: one OS process per fleet member.

Each worker connects back to the coordinator's loopback socket, says
``hello``, and then runs one loop over that one socket.  Each turn it
does whatever is due, in this order, then waits:

* **heartbeat** -- a periodic liveness beacon; the coordinator evicts a
  worker after ``miss_limit`` missed beats (see
  :class:`~repro.exec.pool.ExecBackend`);
* **execute** -- the FIFO of dispatched jobs, one job at a time,
  mirroring the sim worker's exact cache semantics
  (:class:`~repro.data.cache.WorkerCache` is reused *verbatim*):
  lookup -> hit, or miss -> fetch -> insert.  Timing follows the sim's
  cost model scaled by ``time_scale`` --
  ``(link_latency + size/network) * scale`` to fetch,
  ``(size/rw + compute/cpu_factor) * scale`` to process -- plus genuine
  CPU work through the sandboxed handler registry
  (:mod:`repro.exec.handlers`), on absolute deadlines: a job starts when
  its ``dispatch`` was read or at the previous deadline plus handler
  time, if later; each phase ends at its start + scaled time, and
  ``exec_s`` counts from that start, so lateness never carries over;
  ``wait_s`` is how long the worker sat idle before it (dispatch read
  minus the previous job's end; 0 for a queued or a first job), the
  measure the coordinator sizes its dispatch window by, and
  ``queued_s`` how long it sat read but not started (start minus
  dispatch read), which the coordinator takes off its handoff sample;
* **send** -- every ``done`` and heartbeat of the turn in one
  ``sendall``;
* **wait** -- until the socket is readable, the running job's fetch or
  process phase is due, or the next heartbeat is, whichever is first;
  then read every ``dispatch`` (into the FIFO) and obey ``shutdown``.

Because the coordinator dispatches each worker's jobs in plan order and
the executor is FIFO, the per-worker cache hit/miss *sequence* here must
equal the sim's -- one of the differential harness's strongest checks.

A process that sleeps modelled durations needs a wait finer than the
shortest: ``epoll`` rounds timeouts up to whole milliseconds, so the loop
waits on a :class:`selectors.SelectSelector` (one socket, microseconds),
and :func:`worker_main` sets its timer slack to 1 ns on Linux.

``stall_after`` (a test/chaos hook) makes the process fall silent --
no heartbeats, no progress -- after N completions, exercising the
coordinator's miss-based eviction exactly the way a livelocked or
wedged worker would.
"""

from __future__ import annotations

import selectors
import socket
import sys
import time
from collections import deque
from typing import Any

from repro.data.cache import WorkerCache
from repro.exec import protocol
from repro.exec.handlers import payload_for, run_handler


def fetch_seconds(spec: dict[str, Any], size_mb: float) -> float:
    """Unscaled sim download time for ``size_mb`` on this worker."""
    return spec["link_latency"] + size_mb / spec["network_mbps"]


def process_seconds(spec: dict[str, Any], size_mb: float, base_compute_s: float) -> float:
    """Unscaled sim processing time (I/O pass + fixed compute)."""
    return size_mb / spec["rw_mbps"] + base_compute_s / spec["cpu_factor"]


class Worker:
    """One worker's state and its loop over one connected socket."""

    def __init__(self, sock: socket.socket, spec: dict[str, Any], cfg: dict[str, Any]) -> None:
        self.sock = sock
        self.spec = spec
        self.name = spec["name"]
        capacity = spec.get("cache_capacity_mb")
        self.cache = WorkerCache(capacity_mb=float("inf") if capacity is None else capacity)
        self.cache.preload({repo: size for repo, size in spec.get("preload", ())})
        self.time_scale = cfg["time_scale"]
        self.heartbeat_s = cfg["heartbeat_s"]
        self.stall_after = cfg.get("stall_after")  # completions before going silent
        self.selector = selectors.SelectSelector()
        self.selector.register(sock, selectors.EVENT_READ)

    def wait(self, timeout: float | None) -> bool:
        """Block until the socket is readable or ``timeout`` passes."""
        return bool(self.selector.select(timeout))

    def run(self) -> None:
        """Serve until ``shutdown`` or the coordinator's EOF."""
        clock, spec, scale = time.monotonic, self.spec, self.time_scale
        name = self.name
        out = [protocol.encode({"type": protocol.HELLO, "role": protocol.ROLE_WORKER, "name": name})]
        beat = protocol.encode({"type": protocol.HEARTBEAT, "name": name})
        parser = protocol.LineParser()
        fifo: deque[tuple[dict[str, Any], float]] = deque()  # (dispatch, read at)
        job: dict[str, Any] | None = None  # the running job's dispatch message
        job_id = repo_id = cache_hit = None
        size_mb = started = waited = due = free_at = 0.0
        fetching = stalled = False
        completed = 0
        next_beat = clock()
        while True:
            now = clock()
            if not stalled and now >= next_beat:
                out.append(beat)
                next_beat = now + self.heartbeat_s
            while not stalled and (job is not None or fifo):
                if job is None:  # start the next job: a hit processes, a miss fetches first
                    job, read_at = fifo.popleft()
                    job_id, repo_id = job["job_id"], job.get("repo_id")
                    size_mb = job.get("size_mb", 0.0)
                    started = due = max(free_at, read_at)
                    waited = started - free_at if free_at else 0.0  # idle before it
                    cache_hit = None if repo_id is None else self.cache.lookup(repo_id)
                    fetching = cache_hit is False
                    seconds = fetch_seconds(spec, size_mb) if fetching else None
                elif now < due:
                    break
                elif fetching:  # the clone landed: cache it, then process
                    self.cache.insert(repo_id, size_mb)
                    fetching = False
                    seconds = None
                else:  # processed: the handler's real work, then report
                    free_at = due - now  # + the clock after the handler: deadline + its time
                    digest = run_handler(
                        job.get("handler", "checksum"), payload_for(job_id, repo_id, size_mb)
                    )
                    job = None
                    now = clock()
                    free_at += now
                    completed += 1
                    if self.stall_after is not None and completed >= self.stall_after:
                        stalled = True  # wedge: no done message, no beats, no progress
                        break
                    out.append(
                        protocol.encode(
                            {
                                "type": protocol.DONE,
                                "name": name,
                                "job_id": job_id,
                                "cache_hit": cache_hit,
                                "fetched_mb": size_mb if cache_hit is False else 0.0,
                                "exec_s": now - started,
                                "wait_s": waited,
                                "queued_s": started - read_at,
                                "result": digest,
                            }
                        )
                    )
                    continue
                if seconds is None:
                    seconds = process_seconds(spec, size_mb, job.get("base_compute_s", 0.0))
                due += seconds * scale
            if out:
                self.sock.sendall(b"".join(out))
                out.clear()
            if stalled:
                timeout = None
            elif job is not None and due < next_beat:
                timeout = max(0.0, due - clock())
            else:
                timeout = max(0.0, next_beat - clock())
            if not self.wait(timeout):
                continue
            data = self.sock.recv(1 << 16)
            if not data:
                return
            read_at = clock()
            for message in parser.feed(data):
                if message["type"] == protocol.SHUTDOWN:
                    return
                if message["type"] == protocol.DISPATCH:
                    fifo.append((message, read_at))


def worker_main(host: str, port: int, spec: dict[str, Any], cfg: dict[str, Any]) -> None:
    """Process entry point (must stay importable for ``spawn``)."""
    if sys.platform == "linux":  # this process's own timer slack: 50 us -> 1 ns
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int,) + (ctypes.c_ulong,) * 4, ctypes.c_int
        prctl(29, 1, 0, 0, 0)  # PR_SET_TIMERSLACK
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        Worker(sock, spec, cfg).run()
    except (KeyboardInterrupt, ConnectionError):  # pragma: no cover - teardown
        pass
    finally:
        sock.close()
