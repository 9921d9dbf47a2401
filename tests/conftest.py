"""Shared fixtures and helpers for engine-level tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.cluster.profiles import WorkerProfile
from repro.cluster.worker_spec import WorkerSpec
from repro.data.cache import WorkerCache
from repro.engine.worker import WorkerNode
from repro.fleet import FleetState
from repro.metrics.collector import MetricsCollector
from repro.net.topology import Topology, TopologyConfig
from repro.schedulers.base import WorkerPolicy
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_spec(name="w1", network=10.0, rw=50.0, **kwargs) -> WorkerSpec:
    """A worker spec with zero link latency for exact-time assertions."""
    kwargs.setdefault("link_latency", 0.0)
    return WorkerSpec(name=name, network_mbps=network, rw_mbps=rw, **kwargs)


def make_worker(
    sim: Simulator,
    spec: WorkerSpec | None = None,
    policy: WorkerPolicy | None = None,
    topology: Topology | None = None,
    metrics: MetricsCollector | None = None,
    cache_capacity: float = float("inf"),
) -> WorkerNode:
    """A standalone worker node wired to a private zero-latency topology."""
    spec = spec or make_spec()
    if topology is None:
        topology = Topology.build(
            sim, [], TopologyConfig(min_latency=0.0, max_latency=0.0, broker_processing=0.0)
        )
    if spec.name not in topology.node_latency:
        topology.add_node(spec.name, 0.0)
    machine = Machine(sim, spec, rng=np.random.default_rng(0))
    worker = WorkerNode(
        sim=sim,
        topology=topology,
        machine=machine,
        cache=WorkerCache(capacity_mb=cache_capacity),
        policy=policy or WorkerPolicy(),
        metrics=metrics or MetricsCollector(),
        fleet=FleetState(),
    )
    return worker


def make_profile(*specs: WorkerSpec) -> WorkerProfile:
    """Wrap specs into a profile for runtime-level tests."""
    return WorkerProfile("test-profile", tuple(specs))
