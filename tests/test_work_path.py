"""The work path -- executor, link, prefetcher, intake -- as callback
state machines: an exact cost gate, and a script differential against
the generators they replaced (``tests/reference_executor.py``)."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_spec
from reference_executor import ReferenceMachine, ReferenceWorkerNode
from repro.cluster import WorkerProfile, WorkerSpec
from repro.cluster.machine import Machine
from repro.data.cache import WorkerCache
from repro.engine.worker import WorkerNode
from repro.fleet import FleetState
from repro.hooks import Hooks
from repro.host import EngineConfig, WorkflowRuntime
from repro.metrics.collector import MetricsCollector
from repro.metrics.trace import Trace
from repro.net.noise import UniformNoise
from repro.net.topology import Topology, TopologyConfig
from repro.schedulers.base import WorkerPolicy
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim import Simulator
from repro.workload.generators import job_config_by_name
from repro.workload.job import Job

# -- (a) what a run costs the kernel: exact, host-free ------------------------

#: Heap entries pushed per job by a fleet cell of 25 workers x 200 jobs
#: (``80%_large`` at 0.2 s inter-arrival, seed 11, no observer): exact,
#: as recorded when the work path became callbacks (the generators
#: pushed 1.42 to 1.46 more in every row: 10.8 where this says 9.34).  A rise
#: means some hop of the per-job path got an entry it did not have;
#: re-record only with the reason in the commit message.
HEAP_PUSHES_PER_JOB = {
    "bar": 9.34,
    "baseline": 16.93,
    "bidding": 15.31,
    "delay": 17.495,
    "matchmaking": 18.145,
    "random": 9.34,
    "round-robin": 9.34,
    "spark": 9.34,
}


def fleet_cell(scheduler: str, n_workers: int, n_jobs: int) -> WorkflowRuntime:
    profile = WorkerProfile(
        f"fleet-{n_workers}",
        tuple(
            WorkerSpec(f"w{i:04d}", network_mbps=10 * (1 + 0.05 * ((i % 11) - 5) / 5), rw_mbps=60)
            for i in range(n_workers)
        ),
    )
    config = dataclasses.replace(
        job_config_by_name("80%_large"), n_jobs=n_jobs, mean_interarrival_s=0.2
    )
    _corpus, stream = config.build(seed=11)
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=11, trace=False),
    )


def kernel_cost(scheduler: str, n_workers: int, n_jobs: int) -> float:
    """Heap entries pushed per job by one cell."""
    runtime = fleet_cell(scheduler, n_workers, n_jobs)
    result = runtime.run()
    assert result.jobs_completed == n_jobs
    return runtime.counts()["heap_pushes"] / n_jobs


def test_the_gate_covers_every_scheduler():
    assert sorted(HEAP_PUSHES_PER_JOB) == sorted(SCHEDULERS)


@pytest.mark.parametrize("scheduler", sorted(HEAP_PUSHES_PER_JOB))
def test_no_process_per_job_or_worker_and_no_more_heap_entries(scheduler):
    # The kernel is timers only: nothing can start a process at all.
    assert not hasattr(Simulator, "process")
    assert kernel_cost(scheduler, 25, 200) <= HEAP_PUSHES_PER_JOB[scheduler]


# -- (b) the script differential ------------------------------------------------


class LoggingTrace(Trace):
    """Trace events go to the script's one log, in the order they happen."""

    def __init__(self, log: list) -> None:
        super().__init__()
        self.log = log

    def record(self, time, kind, job_id, worker=None, detail=None) -> None:
        self.log.append((time, kind, job_id))


class Rig:
    """One worker (the reference or the real one) on a zero-latency
    topology, with everything that can tell the order of things apart
    writing into one log: trace events, the policy hooks, messages to
    the master, link occupancy flips -- and, armed from inside each of
    those, a timer for the same instant, whose place in the log shows
    where the hook stood among that instant's heap entries."""

    def __init__(self, node_cls, machine_cls, prefetch=False, warm=()):
        self.sim = sim = Simulator()
        self.log = log = []
        topology = Topology.build(
            sim, [], TopologyConfig(min_latency=0.0, max_latency=0.0, broker_processing=0.0)
        )
        topology.add_node("w1", 0.0)
        self.rng = np.random.default_rng(5)
        machine = machine_cls(
            sim,
            make_spec(network=10.0, rw=10.0, link_latency=0.5),
            network_noise=UniformNoise(0.5),
            rw_noise=UniformNoise(0.5),
            rng=self.rng,
        )
        rig = self

        class SpyPolicy(WorkerPolicy):
            def on_state_changed(self, repos=()):
                rig.note("state_changed", tuple(repos))

            def on_job_finished(self, job, elapsed_s):
                rig.note("job_finished", job.job_id, elapsed_s)

        cache = WorkerCache(capacity_mb=float("inf"))
        for repo in warm:
            cache.insert(repo, 100.0)
        hooked = SimpleNamespace(sim_work=self.sim_work)
        hooks = Hooks()
        hooks.subscribe(MetricsCollector(trace=LoggingTrace(log)))
        self.worker = worker = node_cls(
            sim=sim,
            topology=topology,
            machine=machine,
            cache=cache,
            policy=SpyPolicy(),
            fleet=FleetState(),
            pipeline=SimpleNamespace(task_of=lambda job: hooked if job.task == "Hooked" else None),
            prefetch=prefetch,
            hooks=hooks,
        )
        inner = machine.link.observer
        machine.link.observer = lambda busy: (inner(busy), rig.note("link_busy", busy))
        send = worker.send_to_master

        def send_to_master(message):
            jobs = getattr(message, "orphaned", None) or (getattr(message, "job", None),)
            rig.note(type(message).__name__, tuple(job and job.job_id for job in jobs))
            send(message)

        worker.send_to_master = send_to_master
        worker.start()

    def note(self, *what) -> None:
        """Log ``what`` now, and again from a timer armed here."""
        now = self.sim.now
        self.log.append((now, *what))
        self.sim.call_at(now, self.log.append, (now, "timer armed in", *what))

    @staticmethod
    def sim_work(job, machine, sim, done):
        sim.call_later(0.75, done)

    def at(self, when: float, action, *args) -> None:
        def act():
            self.note("before", action.__name__, *args)
            action(*args)
            self.note("after", action.__name__, *args)

        self.sim.call_at(when, act)

    # The script's verbs.

    def enqueue(self, job_id, repo=None, task="RepositoryAnalyzer"):
        self.worker.enqueue(
            Job(
                job_id=job_id,
                task=task,
                repo_id=repo,
                size_mb=100.0 if repo else 0.0,
                base_compute_s=0.5,
            )
        )

    def kill(self):
        self.worker.kill()

    def checkpoint(self, max_jobs):
        taken = self.worker.checkpoint_jobs(max_jobs, include_running=True)
        self.note("checkpointed", tuple(job.job_id for job in taken))

    def checkpoint_and_enqueue(self, job_id, repo):
        self.checkpoint(1)
        self.enqueue(job_id, repo)

    def finish(self) -> list:
        self.sim.run()
        link = self.worker.machine.link
        machine = self.worker.machine
        self.log.append(
            (
                "end",
                self.sim.now,
                link.total_mb,
                link.transfer_count,
                link.busy,
                machine.busy_seconds,
                tuple(machine._network_samples),
                tuple(machine._rw_samples),
                sorted(self.worker.cache.contents()),
                self.worker._outstanding_jobs,
                # The next draw tells whether the same number were made.
                self.rng.random(),
            )
        )
        return self.log


# Downloads take 0.5 s of latency and 6.7..20 s of flow, scans 7.2..20.5 s.


def queueing(rig: Rig) -> None:
    # Before the executor's first turn, between two timers of instant 0:
    # the job is found *by* that turn, so it starts after both.
    rig.note("before", "early")
    rig.enqueue("early", "r0")
    rig.note("after", "early")
    rig.at(1.0, rig.enqueue, "parked", "r1")  # while parked: a miss
    rig.at(2.0, rig.enqueue, "busy", "r1")  # while busy: will hit
    rig.at(3.0, rig.enqueue, "twin-a", "r2")  # two at one instant
    rig.at(3.0, rig.enqueue, "twin-b")  # ... the second without data
    rig.at(4.0, rig.enqueue, "hooked", "r1", "Hooked")  # runs sim_work
    rig.at(200.0, rig.enqueue, "late", "r3")  # parked again by then


def prefetch_race(rig: Rig) -> None:
    # An idle prefetching worker gets two misses at one instant: the
    # executor's own download and the prefetch of the second clone ask
    # for the link in the same instant; later the executor reaches
    # "second" while its clone is still being prefetched, and "third"
    # is prefetched behind "second"'s scan.
    rig.at(1.0, rig.enqueue, "first", "r1")
    rig.at(1.0, rig.enqueue, "second", "r2")
    rig.at(1.0, rig.enqueue, "third", "r3")
    rig.at(2.0, rig.enqueue, "again", "r2")


def kill_at(when: float):
    def script(rig: Rig) -> None:
        rig.at(1.0, rig.enqueue, "running", "r1")
        rig.at(1.0, rig.enqueue, "queued", "r2")
        rig.at(when, rig.kill)

    script.__name__ = f"kill_at_{when}"
    return script


def checkpoint_then_miss(rig: Rig) -> None:
    rig.at(1.0, rig.enqueue, "running", "r1")
    rig.at(4.0, rig.checkpoint, 1)  # mid-flow, queue empty: takes "running"
    rig.at(5.0, rig.enqueue, "behind", "r2")  # misses: waits behind the abandoned transfer
    rig.at(5.0, rig.enqueue, "tail", "r3")
    rig.at(5.0, rig.enqueue, "next", "r4")
    # In "behind"'s wait for the link: takes "next", "tail" and the
    # running job; nothing is left.
    rig.at(6.0, rig.checkpoint, 3)
    rig.at(7.0, rig.enqueue, "third", "r5")
    # In "third"'s latency, and a job handed over in the same callback:
    # it finds the executor between jobs, not yet parked.
    rig.at(7.25, rig.checkpoint_and_enqueue, "fourth", "r1")


def checkpoint_in_compute(rig: Rig) -> None:
    rig.at(1.0, rig.enqueue, "scanning", "warm")
    rig.at(3.0, rig.checkpoint, 1)  # mid-scan
    rig.at(4.0, rig.enqueue, "hooked", "warm", "Hooked")
    rig.at(4.5, rig.checkpoint, 1)  # inside its sim_work, which ends at 4.75
    rig.at(4.6, rig.enqueue, "after", "warm")  # scanning when that work ends
    rig.at(5.0, rig.enqueue, "hooked-2", "warm", "Hooked")


# (script, prefetching worker?, repositories already in its cache)
SCRIPTS = [
    (queueing, False, ()),
    (queueing, True, ()),
    (prefetch_race, True, ()),
    (kill_at(1.25), False, ()),  # in the latency
    (kill_at(4.0), False, ()),  # in the flow
    (kill_at(3.0), False, ("r1",)),  # in the scan ("running" hits)
    (kill_at(1.25), True, ()),  # ... with a prefetch waiting for the link
    (kill_at(4.0), True, ()),
    (checkpoint_then_miss, False, ()),
    (checkpoint_then_miss, True, ()),
    (checkpoint_in_compute, False, ("warm",)),
]


@pytest.mark.parametrize(
    "script, prefetch, warm",
    SCRIPTS,
    ids=[
        script.__name__ + ("-prefetch" if prefetch else "") + ("-warm" if warm else "")
        for script, prefetch, warm in SCRIPTS
    ],
)
def test_same_log_and_rng_draws_as_the_generators(script, prefetch, warm):
    logs = []
    for node_cls, machine_cls in ((ReferenceWorkerNode, ReferenceMachine), (WorkerNode, Machine)):
        rig = Rig(node_cls, machine_cls, prefetch=prefetch, warm=warm)
        script(rig)
        logs.append(rig.finish())
    reference, machine = logs
    assert len(reference) > 10
    for index, (expected, got) in enumerate(zip(reference, machine)):
        assert got == expected, f"entry {index}: {got} != {expected}"
    assert len(machine) == len(reference)
