"""ProbeRegistry cadence/retention and the zero-cost-when-off contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_profile, make_spec
from reference_probes import ProbeRegistry as ReferenceProbeRegistry
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.obs import ObsConfig, ProbeRegistry, as_obs_config, busy_fraction
from repro.schedulers.registry import make_scheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobStream
from repro.workload.msr import TASK_ANALYZER


def burst_stream(n=6, size=10.0):
    return JobStream.burst(
        [
            Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=size)
            for i in range(n)
        ]
    )


def make_runtime(obs=True, **config_kwargs):
    return WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2")),
        stream=burst_stream(),
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(seed=0, obs=obs, **config_kwargs),
    )


class TestProbeRegistry:
    def test_samples_on_cadence(self):
        sim = Simulator()
        registry = ProbeRegistry(sim, interval_s=2.0)
        ticks = []
        registry.register("clock", lambda: sim.now, unit="s")
        registry.start()
        sim.run(until=7.0)
        series = registry.series("clock")
        assert [time for time, _ in series] == [0.0, 2.0, 4.0, 6.0]
        assert [value for _, value in series] == [0.0, 2.0, 4.0, 6.0]
        assert ticks == []  # nothing else ran

    def test_retention_ring_bound(self):
        sim = Simulator()
        registry = ProbeRegistry(sim, interval_s=1.0, retention=5)
        registry.register("count", lambda: 1.0)
        registry.start()
        sim.run(until=20.0)
        samples = registry.series("count")
        assert len(samples) == 5  # bounded, newest kept
        assert samples[-1][0] == 20.0

    def test_stop_halts_sampling(self):
        sim = Simulator()
        registry = ProbeRegistry(sim, interval_s=1.0)
        registry.register("x", lambda: 0.0)
        registry.start()
        sim.run(until=3.0)
        registry.stop()
        before = len(registry.series("x"))
        sim.run(until=10.0)
        assert len(registry.series("x")) == before

    def test_reregister_keeps_history(self):
        sim = Simulator()
        registry = ProbeRegistry(sim, interval_s=1.0)
        registry.register("gauge", lambda: 1.0)
        registry.start()
        sim.run(until=2.0)
        registry.register("gauge", lambda: 9.0)  # e.g. a restarted worker
        sim.run(until=4.0)
        values = [value for _, value in registry.series("gauge")]
        assert values == [1.0, 1.0, 1.0, 9.0, 9.0]

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ProbeRegistry(sim, interval_s=0.0)
        with pytest.raises(ValueError):
            ProbeRegistry(sim, retention=0)

    def test_busy_fraction(self):
        assert busy_fraction([]) is None
        assert busy_fraction([(0.0, 1.0), (1.0, 0.0)]) == 0.5


class TestObsConfig:
    def test_normalisation(self):
        assert as_obs_config(None) is None
        assert as_obs_config(False) is None
        assert as_obs_config(True) == ObsConfig()
        cfg = ObsConfig(probe_interval_s=0.5, retention=16)
        assert as_obs_config(cfg) is cfg
        with pytest.raises(TypeError):
            as_obs_config("yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(probe_interval_s=0.0)
        with pytest.raises(ValueError):
            ObsConfig(retention=0)


class TestRuntimeProbes:
    def test_standard_probes_registered_and_sampled(self):
        runtime = make_runtime(obs=ObsConfig(probe_interval_s=1.0))
        runtime.run()
        names = runtime.obs.probes.names()
        for expected in (
            "master.outstanding",
            "fleet.active",
            "fleet.busy",
            "links.busy",
            "worker.w1.busy",
            "worker.w1.queue",
            "worker.w2.busy",
            "worker.w2.queue",
        ):
            assert expected in names, names
        # Every series has samples from start through the final flush.
        for name in names:
            samples = runtime.obs.probes.series(name)
            assert samples, name
            assert samples[0][0] == 0.0

    def test_worker_busy_fraction_positive(self):
        runtime = make_runtime(obs=True)
        runtime.run()
        fractions = [
            busy_fraction(runtime.obs.probes.series(f"worker.{name}.busy"))
            for name in ("w1", "w2")
        ]
        assert any(fraction > 0 for fraction in fractions)


class TestZeroCostOff:
    def test_obs_off_leaves_no_recorder_anywhere(self):
        runtime = make_runtime(obs=False)
        assert runtime.obs is None
        assert runtime.master.obs is None
        assert runtime.topology.broker.obs is None
        for worker in runtime.workers.values():
            assert worker.obs is None
        runtime.run()

    def test_obs_off_messages_carry_no_ctx(self):
        runtime = make_runtime(obs=False)
        seen = []
        original = runtime.master.send_to_worker

        def spy(worker, message):
            seen.append(message)
            original(worker, message)

        runtime.master.send_to_worker = spy
        runtime.run()
        from repro.engine.messages import Assignment

        assignments = [m for m in seen if isinstance(m, Assignment)]
        assert assignments
        assert all(m.ctx is None for m in assignments)

    def test_obs_on_metrics_bit_identical_to_off(self):
        plain = make_runtime(obs=False).run()
        observed = make_runtime(obs=True).run()
        assert observed.makespan_s == plain.makespan_s
        assert observed.cache_misses == plain.cache_misses
        assert observed.cache_hits == plain.cache_hits
        assert observed.data_load_mb == plain.data_load_mb


# -- the ring against the per-probe deques it replaced -------------------------

SOURCES = ("a", "b", "c", "d")
SCALAR_NAMES = ("s0", "s1", "s2")
UNITS = ("", "jobs", "workers")

op_st = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(SCALAR_NAMES), st.sampled_from(SOURCES),
              st.sampled_from(UNITS)),
    st.tuples(st.just("register_vector"), st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3),
              st.sampled_from(UNITS), st.booleans(), st.booleans()),
    st.tuples(st.just("unregister"), st.sampled_from(SCALAR_NAMES + ("v0.0", "v1.0", "v1.1"))),
    st.tuples(st.just("set"), st.sampled_from(SOURCES),
              st.one_of(st.integers(-3, 9), st.booleans(), st.floats(-5.0, 5.0))),
    st.tuples(st.just("advance"), st.sampled_from((0.5, 1.0, 2.5, 4.0))),
    st.tuples(st.just("sample_once")),
    st.tuples(st.just("start")),
    st.tuples(st.just("stop")),
)


class _Rig:
    """One registry on its own simulator, its gauges reading ``state``."""

    def __init__(self, registry_cls, retention, state):
        self.sim = Simulator()
        self.registry = registry_cls(self.sim, interval_s=1.0, retention=retention)
        self.state = state

    def apply(self, op, vectors):
        kind, registry, state = op[0], self.registry, self.state
        if kind == "register":
            registry.register(op[1], lambda key=op[2]: state[key], unit=op[3])
        elif kind == "register_vector":
            names, keys, as_array = vectors[-1], op[1], op[4]
            if as_array:
                fn = lambda: np.array([state[key] for key in keys])  # noqa: E731
            else:
                fn = lambda: [state[key] for key in keys]  # noqa: E731
            registry.register_vector(names, fn, unit=op[2])
        elif kind == "unregister":
            registry.unregister(op[1])
        elif kind == "advance":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "sample_once":
            registry.sample_once()
        elif kind == "start":
            registry.start()
        elif kind == "stop":
            registry.stop()

    def view(self):
        registry = self.registry
        return {
            name: (
                registry.series(name),
                registry.probes[name].values(),
                registry.probes[name].times(),
                list(registry.probes[name].samples),
                registry.probes[name].unit,
                registry.probes[name].grouped,
            )
            for name in registry.names()
        }


@settings(max_examples=150, deadline=None)
@given(retention=st.sampled_from((1, 3, 8)), script=st.lists(op_st, min_size=1, max_size=40))
def test_ring_matches_the_reference_deques(retention, script):
    """Scalar and vector registration, a gauge re-registered after a
    "restart", a scalar taken over by a vector, unregister, columns
    added mid-run, wrap-around, ``sample_once``, ``stop`` then
    ``start``: the same names, series, values, times and units."""
    state = dict.fromkeys(SOURCES, 0)
    ring, reference = (
        _Rig(cls, retention, state) for cls in (ProbeRegistry, ReferenceProbeRegistry)
    )
    vectors, grouped = [], set()
    for op in script:
        if op[0] == "set":
            state[op[1]] = op[2]
            continue
        if op[0] == "register_vector":
            # Fresh names, or -- ``op[3]`` -- the scalar names not fed by
            # a group yet (see ``reference_probes``: a vector name is
            # never registered twice).
            names = [f"v{len(vectors)}.{i}" for i in range(len(op[1]))]
            if op[3]:
                free = [name for name in SCALAR_NAMES if name not in grouped]
                names = free[: len(names)] + names[len(free):]
            vectors.append(names)
            grouped.update(names)
        elif op[0] == "unregister":
            grouped.discard(op[1])
        ring.apply(op, vectors)
        reference.apply(op, vectors)
        assert ring.registry.names() == reference.registry.names()
        assert len(ring.registry) == len(reference.registry)
    view = ring.view()
    assert view == reference.view()
    for series, values, *_ in view.values():
        assert all(type(value) is float for value in values)
        assert len(series) <= retention


def test_vector_units_per_name_and_length_check():
    sim = Simulator()
    registry = ProbeRegistry(sim)
    registry.register_vector(["x", "y"], lambda: [1, 2], unit=["jobs", ""])
    assert [registry.probes[name].unit for name in ("x", "y")] == ["jobs", ""]
    registry.register_vector(["z"], lambda: [1, 2])
    with pytest.raises(ValueError, match="2 values for 1 names"):
        registry.sample_once()


def test_a_vector_registered_again_replaces_the_older_group():
    # The deques took two samples per tick from then on.
    sim = Simulator()
    registry = ProbeRegistry(sim)
    registry.register_vector(["x"], lambda: [1])
    registry.sample_once()
    registry.register_vector(["x"], lambda: [2])
    registry.sample_once()
    assert registry.probes["x"].values() == [1.0, 2.0]
