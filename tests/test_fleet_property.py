"""Property tests: the struct-of-arrays fleet planes never drift.

:mod:`repro.fleet` keeps the fleet's hot state in numpy planes, fed
incrementally at the mutation seams.  These tests drive randomized seam
sequences -- joins, retires, crashes, count reports, cache churn --
against both the planes and a plain-Python reference model, and require
exact agreement: a plane that drifts by one bit would silently change
scheduling decisions while every example-based test still passes.

The planner differentials do the same one level up: the array BAR and
Spark planners against the scalar planners they replaced
(``reference_planners.py``) over random fleets, views, job lists and
churn -- same plan, same load/count cells to the bit, same streaming
picks.

The final test closes the loop end-to-end: a fault-injected workflow
run with the :mod:`repro.check` invariant monitors live, after which
the fleet planes must equal the worker nodes' own state.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_profile, make_spec
from reference_planners import ReferenceBARMasterPolicy, ReferenceSparkMasterPolicy
from repro.data.cache import WorkerCache
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.fleet import FleetState, LoadTable
from repro.fleet.soa import _CacheObserver
from repro.net.topology import TopologyConfig
from repro.schedulers.bar import BARMasterPolicy
from repro.schedulers.registry import make_scheduler
from repro.schedulers.spark import SparkMasterPolicy
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

WORKERS = [f"w{i}" for i in range(6)]
REPOS = [f"r{i}" for i in range(8)]

worker_st = st.sampled_from(WORKERS)
repo_st = st.sampled_from(REPOS)

fleet_op_st = st.one_of(
    st.tuples(st.just("join"), worker_st),
    st.tuples(st.just("retire"), worker_st),
    st.tuples(st.just("fail"), worker_st),
    st.tuples(st.just("set_alive"), worker_st, st.booleans()),
    st.tuples(
        st.just("report"),
        worker_st,
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(st.just("cache_set"), worker_st, repo_st, st.booleans()),
    st.tuples(st.just("cache_clear"), worker_st),
)


class _Reference:
    """The plain-Python model the mirror must track exactly."""

    def __init__(self):
        self.alive = {}
        self.active = {}
        self.outstanding = {}
        self.queued = {}
        self.cache = {}

    def ensure(self, name):
        self.alive.setdefault(name, False)
        self.active.setdefault(name, False)
        self.outstanding.setdefault(name, 0)
        self.queued.setdefault(name, 0)
        self.cache.setdefault(name, set())

    def busy_count(self):
        return sum(
            1 for n in self.alive if self.alive[n] and self.outstanding[n] > 0
        )

    def active_busy_count(self):
        return sum(
            1 for n in self.active if self.active[n] and self.outstanding[n] > 0
        )


@given(st.lists(fleet_op_st, max_size=200))
@settings(max_examples=100, deadline=None)
def test_fleet_state_mirror_matches_reference(ops):
    fleet = FleetState()
    ref = _Reference()
    for op in ops:
        kind, name = op[0], op[1]
        slot = fleet.ensure_worker(name)
        ref.ensure(name)
        if kind == "join":
            fleet.on_join(name)
            ref.active[name] = True
        elif kind == "retire":
            fleet.on_retire(name)
            ref.active[name] = False
        elif kind == "fail":
            fleet.on_fail(name)
            ref.active[name] = False
        elif kind == "set_alive":
            fleet.set_alive(slot, op[2])
            ref.alive[name] = op[2]
        elif kind == "report":
            fleet.report(slot, op[2], op[3])
            ref.outstanding[name] = op[2]
            ref.queued[name] = op[3]
        elif kind == "cache_set":
            fleet.cache.set(slot, op[2], op[3])
            (ref.cache[name].add if op[3] else ref.cache[name].discard)(op[2])
        elif kind == "cache_clear":
            fleet.cache.clear_row(slot)
            ref.cache[name].clear()
    # Exact plane-by-plane agreement, then the derived counts.
    for name in ref.alive:
        slot = fleet.slot_of(name)
        assert bool(fleet.alive[slot]) == ref.alive[name]
        assert bool(fleet.active[slot]) == ref.active[name]
        assert int(fleet.outstanding[slot]) == ref.outstanding[name]
        assert int(fleet.queued[slot]) == ref.queued[name]
        assert fleet.cache.row_contents(slot) == ref.cache[name]
    assert fleet.busy_count() == ref.busy_count()
    assert fleet.active_busy_count() == ref.active_busy_count()
    if ref.alive:
        slots = np.array([fleet.slot_of(n) for n in ref.alive], dtype=np.intp)
        # One probe tick's gather: busy count, busy links (no link is
        # ever occupied here), queue depths, busy flags.
        assert fleet.probe_row(slots) == (
            [ref.busy_count(), 0]
            + [ref.queued[n] for n in ref.alive]
            + [int(ref.alive[n] and ref.outstanding[n] > 0) for n in ref.alive]
        )


cache_op_st = st.one_of(
    st.tuples(st.just("insert"), repo_st, st.floats(min_value=1.0, max_value=40.0)),
    st.tuples(st.just("lookup"), repo_st),
    st.tuples(st.just("clear")),
    st.tuples(
        st.just("preload"),
        st.dictionaries(repo_st, st.floats(min_value=1.0, max_value=40.0), max_size=4),
    ),
)


@given(
    st.floats(min_value=20.0, max_value=120.0),
    st.lists(cache_op_st, max_size=100),
)
@settings(max_examples=100, deadline=None)
def test_cache_observer_tracks_worker_cache(capacity_mb, ops):
    """Cache churn through the observer seam: inserts, LRU eviction
    cascades, preloads and clears on a capacity-bounded cache keep the
    bit-matrix row equal to the cache's own membership after every op."""
    fleet = FleetState()
    slot = fleet.ensure_worker("w0")
    cache = WorkerCache(capacity_mb=capacity_mb)
    cache.observer = _CacheObserver(fleet, slot)
    for op in ops:
        if op[0] == "insert":
            cache.insert(op[1], op[2])
        elif op[0] == "lookup":
            cache.lookup(op[1])
        elif op[0] == "clear":
            cache.clear()
        elif op[0] == "preload":
            cache.preload(op[1])
        assert fleet.cache.row_contents(slot) == set(cache.contents())


load_op_st = st.one_of(
    st.tuples(st.just("ensure"), worker_st, st.floats(0.0, 100.0)),
    st.tuples(st.just("add"), worker_st, st.floats(0.1, 10.0)),
    st.tuples(st.just("set"), worker_st, st.floats(0.0, 100.0)),
    st.tuples(st.just("pop"), worker_st),
)


@given(st.lists(load_op_st, max_size=150))
@settings(max_examples=100, deadline=None)
def test_load_table_matches_dict_scans(ops):
    """LoadTable vs a dict: after every mutation the rank argmin/argmax
    must equal ``min``/``max`` over the dict with the (value, name)
    tuple key, the position argmin ``min`` over ``enumerate`` -- the
    exact scans the planners replaced -- and the names the dict's
    insertion order."""
    table = LoadTable()
    ref = {}
    for op in ops:
        kind, name = op[0], op[1]
        if kind == "ensure":
            if name not in ref:
                ref[name] = op[2]
            table.ensure(name, op[2])
        elif kind == "add":
            if name in ref:
                ref[name] += op[2]
                table.add(name, op[2])
        elif kind == "set":
            # ``set`` targets existing entries (consumers ensure first).
            if name in ref:
                ref[name] = op[2]
                table.set(name, op[2])
        elif kind == "pop":
            ref.pop(name, None)
            table.pop(name)
        assert table.names == list(ref)
        for key, value in ref.items():
            assert table.get(key) == value
        if ref:
            assert table.argmin_name() == min(ref, key=lambda n: (ref[n], n))
            assert table.argmax_name() == max(ref, key=lambda n: (ref[n], n))
            assert table.max_value() == max(ref.values())
            assert table.argmin_first() == min(
                enumerate(ref), key=lambda pair: (ref[pair[1]], pair[0])
            )[1]


# -- array planners vs the scalar reference --------------------------------

KNOWN_REPOS = [f"r{i}" for i in range(10)]
_some = st.sampled_from


@st.composite
def planner_case_st(draw):
    """A fleet, the two injected views, a job list to plan, a churn
    sequence and the jobs that stream in afterwards.  Names are drawn so
    lexicographic order differs from position (``w10`` < ``w2``) and
    values from small sets as well as ranges, so ties are common."""
    numbers = draw(st.lists(st.integers(0, 99), min_size=1, max_size=64, unique=True))
    workers = [f"w{n}" for n in numbers]
    spares = [f"x{i}" for i in range(4)]
    repo_sets = st.sets(_some(KNOWN_REPOS), max_size=4)
    cache_view = draw(st.dictionaries(_some(workers + ["stranger"]), repo_sets))
    speed_st = st.tuples(
        _some([5.0, 10.0, 20.0]) | st.floats(1.0, 100.0),
        _some([50.0, 60.0]) | st.floats(10.0, 200.0),
        _some([1.0, 2.0]) | st.floats(0.5, 2.0),
        _some([0.0, 0.2]) | st.floats(0.0, 1.0),
    )
    speed_view = {name: draw(speed_st) for name in workers + spares}
    job_st = st.tuples(
        st.none() | _some(KNOWN_REPOS + ["ghost-a", "ghost-b"]),
        _some([10.0, 25.0, 40.0]) | st.floats(0.5, 200.0),
        _some([0.0, 0.25, 1.0]) | st.floats(0.0, 5.0),
    )

    def jobs(prefix, shapes):
        return [
            Job(
                job_id=f"{prefix}{i}",
                task=TASK_ANALYZER,
                repo_id=repo,
                size_mb=size if repo is not None else 0.0,
                base_compute_s=compute,
            )
            for i, (repo, size, compute) in enumerate(shapes)
        ]

    planned = jobs("p", draw(st.lists(job_st, max_size=60)))
    streamed = jobs("s", draw(st.lists(job_st, max_size=30)))
    churn = draw(
        st.lists(
            st.tuples(_some(["fail", "join", "retire"]), _some(workers + spares)),
            max_size=12,
        )
    )
    return workers, cache_view, speed_view, planned, streamed, churn


def _drive(policy, case, seed):
    """Plan, churn, then stream every job through ``policy`` on a fake
    master; returns the plan as first computed and the assignments."""
    workers, cache_view, speed_view, planned, streamed, churn = case
    assigned = []
    master = SimpleNamespace(
        worker_names=list(workers),
        active_workers=list(workers),
        rng=np.random.default_rng(seed),
        assign=lambda job, worker: assigned.append((job.job_id, worker)),
    )
    policy.bind(master)
    policy.cache_view = {name: set(repos) for name, repos in cache_view.items()}
    policy.speed_view = dict(speed_view)
    policy.on_upfront_jobs(planned)
    plan = dict(policy._plan)
    for op, name in churn + [("join", "x0")]:  # someone is active at the end
        active = name in master.active_workers
        if op == "join" and not active:
            if name not in master.worker_names:
                master.worker_names.append(name)
            master.active_workers.append(name)
            policy.cache_view.setdefault(name, set())
            policy.on_worker_joined(name)
        elif op == "fail" and active:
            master.active_workers.remove(name)
            policy.on_worker_failed(name, [])
        elif op == "retire" and active:
            master.active_workers.remove(name)
            policy.on_worker_retired(name)
    for job in planned + streamed:
        policy.on_job(job)
    return plan, assigned


@given(planner_case_st(), st.none() | st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_bar_planner_matches_scalar_reference(case, max_adjustments):
    real = BARMasterPolicy(max_adjustments=max_adjustments)
    ref = ReferenceBARMasterPolicy(max_adjustments=max_adjustments)
    real_plan, real_assigned = _drive(real, case, seed=0)
    ref_plan, ref_assigned = _drive(ref, case, seed=0)
    assert real_plan == ref_plan
    assert real.adjustments == ref.adjustments
    assert real_assigned == ref_assigned
    assert real._plan == ref._plan
    # Same cells to the bit (float equality, no tolerance).
    assert {n: float(real._load.get(n)) for n in real._load.names} == ref._load


@given(planner_case_st(), st.integers(0, 3), st.booleans(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_spark_planner_matches_scalar_reference(case, wait_slots, use_locality, seed):
    real = SparkMasterPolicy(locality_wait_slots=wait_slots, use_locality=use_locality)
    ref = ReferenceSparkMasterPolicy(
        locality_wait_slots=wait_slots, use_locality=use_locality
    )
    real_plan, real_assigned = _drive(real, case, seed)
    ref_plan, ref_assigned = _drive(ref, case, seed)
    assert real_plan == ref_plan
    assert real_assigned == ref_assigned
    assert real._plan == ref._plan
    table = real._counts
    assert table.names == ref._order  # the registration order, through churn
    assert {n: int(table.get(n)) for n in table.names} == ref._planned_counts


def test_fleet_mirror_consistent_after_faulty_run():
    """End-to-end: a monitored, fault-injected run (worker crash +
    restart under fault tolerance) leaves the mirror equal to every
    node's own state -- counts, liveness, link and cache contents."""
    stream = JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % 4}",
                    size_mb=40.0,
                ),
            )
            for i in range(10)
        ]
    )
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(
            seed=3,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            fault_tolerance=True,
            max_sim_time=2000.0,
            check=True,
        ),
    )
    runtime.sim.timeout(5.0).add_callback(lambda _e: runtime.workers["w2"].kill())
    result = runtime.run()
    assert result.jobs_completed == 10
    fleet = runtime.fleet
    assert fleet is not None
    for name, node in runtime.workers.items():
        slot = fleet.slot_of(name)
        assert bool(fleet.alive[slot]) == node.alive
        assert int(fleet.outstanding[slot]) == node._outstanding_jobs
        assert int(fleet.queued[slot]) == len(node.queue)
        assert fleet.cache.row_contents(slot) == set(node.cache.contents())
        assert bool(fleet.link_busy[slot]) == node.machine.link.busy
    assert set(
        name for name in runtime.master.active_workers
    ) == {name for name in fleet.names if fleet.active[fleet.slot_of(name)]}
