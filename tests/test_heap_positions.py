"""Where the three callbacks that replaced the model's last ``Event`` s
stand among an instant's heap entries.

Each site pushes one NORMAL ``call_soon`` where the event's ``succeed``
pushed its entry: the master's stop turn, a worker's idle waiters, and
the shared origin's completion that a link joins.  Each script below
logs an instant's order of things, and each expectation was recorded
from the generator-era code, before the sites moved; none of the golden
pins tells these positions apart.  The scripts fail when a site's turn
goes URGENT, when a link is released ahead of the origin's completion
turn (in either arrival order), or when the master stops one turn
early.
"""

from __future__ import annotations

from conftest import make_worker
from reference_sim import inbox
from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.engine.messages import TOPIC_MASTER, JobOffer, worker_topic
from repro.host import EngineConfig, WorkflowRuntime
from repro.net.bandwidth import FairSharePipe
from repro.net.link import Link
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def test_idle_waiters_wake_behind_what_is_already_due(sim):
    """The job's completion reaches the master's inbox before the pull
    the idle wake sends: the waiter's turn is NORMAL."""
    worker = make_worker(sim, policy=make_scheduler("baseline").make_worker())
    to_master = inbox(sim, worker.topology.broker.subscribe(TOPIC_MASTER, "master"))
    log = []

    def listen():
        while True:
            message = yield to_master.get()
            log.append((sim.now, "heard", type(message).__name__))

    sim.process(listen())
    send = worker.send_to_master
    worker.send_to_master = lambda m: (log.append((sim.now, "sent", type(m).__name__)), send(m))
    worker.start()
    job = Job(job_id="j", task=TASK_ANALYZER, base_compute_s=10.0)
    sim.call_at(1.0, worker.topology.broker.publish, worker_topic(worker.name), JobOffer(job=job))
    sim.run(until=20.0)
    assert log == [
        (0.0, "sent", "Hello"),
        (0.0, "sent", "PullRequest"),
        (0.0, "heard", "Hello"),
        (0.0, "heard", "PullRequest"),
        (1.0, "sent", "JobAccept"),
        (1.0, "heard", "JobAccept"),
        (11.0, "sent", "JobCompleted"),
        (11.0, "heard", "JobCompleted"),
        (11.0, "sent", "PullRequest"),
        (11.0, "heard", "PullRequest"),
    ]


def origin_join(sim, local_mbps: float) -> list:
    """A 10 MB download through a link with a 10 MB/s shared origin;
    ``at_completion`` runs at the origin's completion instant after the
    entries already due then, and arms one more turn for that instant."""
    pipe = FairSharePipe(sim, capacity_mbps=10.0)
    link = Link(sim, bandwidth_mbps=local_mbps, upstream=pipe)
    log = []

    def note(label):
        log.append((sim.now, label))

    def at_completion():
        note("A")
        sim.call_at(sim.now, note, "X")

    link.start(10.0, 0, lambda elapsed: note(f"done {elapsed}"))
    sim.call_at(0.5, sim.call_at, 1.0, at_completion)
    sim.run()
    return log


def test_link_waits_for_the_origins_turn_when_its_own_bytes_are_done_first(sim):
    # Local bytes done at 0.1 s, the origin's at 1.0 s.
    assert origin_join(sim, 100.0) == [(1.0, "A"), (1.0, "X"), (1.0, "done 1.0")]


def test_link_waits_for_the_origins_turn_when_both_end_at_one_instant(sim):
    # Both at 1.0 s: the origin's timer pops first, its completion turn
    # is still due when the local timer pops.
    assert origin_join(sim, 10.0) == [(1.0, "A"), (1.0, "X"), (1.0, "done 1.0")]


def test_the_master_stops_the_run_behind_what_is_already_due():
    """The last completion is handled in the same instant the worker
    that sent it, now idle, pulls again; the master's stop turn comes
    after that pull (message 26), not before it."""
    specs = tuple(
        WorkerSpec(name=f"w{i}", network_mbps=10.0, rw_mbps=50.0, link_latency=0.0)
        for i in (1, 2)
    )
    jobs = [
        JobArrival(
            at=0.0,
            job=Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i % 2}", size_mb=10.0),
        )
        for i in range(4)
    ]
    runtime = WorkflowRuntime(
        profile=WorkerProfile("two", specs),
        stream=JobStream(arrivals=jobs),
        scheduler=make_scheduler("baseline"),
        config=EngineConfig(
            seed=3,
            trace=False,
            noise_params={},
            topology=TopologyConfig(min_latency=0.0, max_latency=0.0, broker_processing=0.0),
        ),
    )
    result = runtime.run()
    assert runtime.master.done
    assert [result.jobs_completed, runtime.sim.now, runtime.topology.broker.published] == [
        4,
        1.3484996002638792,
        26,
    ]
