"""Unit tests for worker specs, profiles and the simulated machine."""

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.cluster.profiles import (
    FAST_FACTOR,
    PROFILE_BUILDERS,
    SLOW_FACTOR,
    WORKER_COUNT,
    all_equal,
    fast_slow,
    one_fast,
    one_slow,
    profile_by_name,
)
from repro.cluster.worker_spec import WorkerSpec
from repro.net.noise import NoNoise, UniformNoise
from repro.sim import Simulator


class TestWorkerSpec:
    def test_nominal_times(self):
        spec = WorkerSpec("w", network_mbps=10.0, rw_mbps=50.0, link_latency=0.5)
        assert spec.nominal_download_time(100.0) == pytest.approx(10.5)
        assert spec.nominal_processing_time(100.0) == pytest.approx(2.0)

    def test_processing_includes_fixed_compute(self):
        spec = WorkerSpec("w", network_mbps=10.0, rw_mbps=50.0, cpu_factor=2.0)
        assert spec.nominal_processing_time(0.0, base_compute_s=4.0) == pytest.approx(2.0)

    def test_scaled(self):
        spec = WorkerSpec("w", network_mbps=10.0, rw_mbps=50.0)
        fast = spec.scaled(4.0, name="fast")
        assert fast.network_mbps == 40.0
        assert fast.rw_mbps == 200.0
        assert fast.cpu_factor == 4.0
        assert fast.name == "fast"
        # Original untouched (frozen dataclass semantics).
        assert spec.network_mbps == 10.0

    def test_scaled_invalid_factor(self):
        spec = WorkerSpec("w", network_mbps=10.0, rw_mbps=50.0)
        with pytest.raises(ValueError):
            spec.scaled(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"network_mbps": 0.0},
            {"rw_mbps": -1.0},
            {"cpu_factor": 0.0},
            {"cache_capacity_mb": 0.0},
            {"link_latency": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(name="w", network_mbps=10.0, rw_mbps=50.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            WorkerSpec(**base)


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(PROFILE_BUILDERS))
    def test_all_profiles_have_five_workers(self, name):
        profile = profile_by_name(name)
        assert len(profile) == WORKER_COUNT
        assert len({spec.name for spec in profile}) == WORKER_COUNT

    def test_all_equal_spread_is_small(self):
        speeds = [spec.network_mbps for spec in all_equal()]
        assert max(speeds) / min(speeds) < 1.15

    def test_one_fast_has_exactly_one_fast(self):
        profile = one_fast()
        speeds = sorted(spec.network_mbps for spec in profile)
        assert speeds[-1] == pytest.approx(speeds[0] * FAST_FACTOR)
        assert speeds[0] == speeds[-2]  # the other four equal

    def test_one_slow_has_exactly_one_slow(self):
        profile = one_slow()
        speeds = sorted(spec.network_mbps for spec in profile)
        assert speeds[0] == pytest.approx(speeds[-1] * SLOW_FACTOR)
        assert speeds[1] == speeds[-1]

    def test_fast_slow_has_both(self):
        profile = fast_slow()
        speeds = sorted(spec.network_mbps for spec in profile)
        assert speeds[-1] / speeds[0] == pytest.approx(FAST_FACTOR / SLOW_FACTOR)
        assert speeds[1] == speeds[2] == speeds[3]

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="valid:"):
            profile_by_name("mystery")


class TestMachine:
    @pytest.fixture
    def sim(self):
        return Simulator()

    def make_machine(self, sim, **kwargs):
        spec = WorkerSpec("w", network_mbps=10.0, rw_mbps=50.0, link_latency=0.0)
        return Machine(sim, spec, rng=np.random.default_rng(0), **kwargs)

    def test_download_duration(self, sim):
        machine = self.make_machine(sim)
        elapsed = []
        machine.download(100.0, 0, elapsed.append)
        sim.run()
        assert elapsed == [pytest.approx(10.0)]

    def test_process_duration(self, sim):
        machine = self.make_machine(sim)
        elapsed = []
        machine.process(100.0, 1.0, elapsed.append)
        sim.run()
        assert elapsed == [pytest.approx(3.0)]
        assert sim.now == pytest.approx(3.0)

    def test_speed_samples_recorded(self, sim):
        machine = self.make_machine(sim)
        machine.download(100.0, 0, lambda _elapsed: machine.process(100.0, 0.0, lambda _d: None))
        sim.run()
        assert machine.measured_network_mbps == pytest.approx(10.0)
        assert machine.measured_rw_mbps == pytest.approx(50.0)

    def test_measured_speeds_seeded_with_nominal(self, sim):
        machine = self.make_machine(sim)
        assert machine.measured_network_mbps == pytest.approx(10.0)
        assert machine.measured_rw_mbps == pytest.approx(50.0)

    def test_noise_shifts_measured_average(self, sim):
        machine = self.make_machine(sim, rw_noise=UniformNoise(0.5))

        def scan(_duration=None):
            if len(machine._rw_samples) <= 50:
                machine.process(10.0, 0.0, scan)

        scan()
        sim.run()
        # Historic average converges near nominal but individual samples vary.
        samples = machine._rw_samples[1:]
        assert np.std(samples) > 0.0

    def test_busy_seconds_accumulate(self, sim):
        machine = self.make_machine(sim)
        machine.download(50.0, 0, lambda _elapsed: machine.process(50.0, 0.0, lambda _d: None))
        sim.run()
        assert machine.busy_seconds == pytest.approx(5.0 + 1.0)

    def test_abandoned_work_is_not_accounted(self, sim):
        machine = self.make_machine(sim)
        machine.download(50.0, 0, lambda _elapsed: None).abandon()
        machine.process(50.0, 0.0, lambda _d: None).cancel()
        sim.run()
        assert machine.busy_seconds == 0.0
        assert len(machine._network_samples) == len(machine._rw_samples) == 1
        # The bytes still moved (the link owns the transfer).
        assert machine.link.total_mb == 50.0

    def test_invalid_sample_rejected(self, sim):
        machine = self.make_machine(sim)
        with pytest.raises(ValueError):
            machine.record_network_sample(0.0)
        with pytest.raises(ValueError):
            machine.record_rw_sample(-5.0)

    def test_process_validates_args(self, sim):
        machine = self.make_machine(sim)
        with pytest.raises(ValueError):
            machine.process(-1.0, 0.0, None)
        with pytest.raises(ValueError):
            machine.process(1.0, -1.0, None)
