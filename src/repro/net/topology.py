"""Cluster topology: node placement and message latencies.

The paper's infrastructure is 7 geo-distributed AWS t3.micro instances:
one master, one messaging broker, five workers, with locations "randomly
determined during configuration startup".  :class:`Topology` reproduces
that shape: every node gets a latency to the broker drawn from a
configurable range, and node-to-node message latency is the sum of the
two broker legs (all Crossflow traffic flows through the broker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.broker import Broker, Subscription

if TYPE_CHECKING:  # pragma: no cover
    from repro.hooks import Hooks
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class TopologyConfig:
    """Latency configuration for a geo-distributed deployment.

    Parameters
    ----------
    min_latency / max_latency:
        Range (seconds) from which each node's one-way latency to the
        broker is drawn.  Defaults approximate same-continent AWS
        regions (5-60 ms).
    broker_processing:
        Fixed broker-side processing delay per message.
    """

    min_latency: float = 0.005
    max_latency: float = 0.060
    broker_processing: float = 0.001

    def __post_init__(self) -> None:
        if self.min_latency < 0 or self.max_latency < self.min_latency:
            raise ValueError("require 0 <= min_latency <= max_latency")
        if self.broker_processing < 0:
            raise ValueError("broker_processing must be non-negative")


@dataclass
class Topology:
    """Node placement and the broker carrying all messages.

    Create with :meth:`build`; then obtain mailboxes via
    :meth:`subscribe` -- latency to the broker is looked up from the
    node's placement automatically.
    """

    sim: "Simulator"
    broker: Broker
    node_latency: dict[str, float] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        sim: "Simulator",
        node_names: list[str],
        config: Optional[TopologyConfig] = None,
        rng: Optional[np.random.Generator] = None,
        hooks: Optional["Hooks"] = None,
    ) -> "Topology":
        """Place ``node_names`` at random distances from a fresh broker
        that emits on ``hooks`` (see :mod:`repro.hooks`)."""
        config = config or TopologyConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        broker = Broker(sim, base_latency=config.broker_processing, hooks=hooks)
        latencies = {
            name: float(rng.uniform(config.min_latency, config.max_latency))
            for name in node_names
        }
        return cls(sim=sim, broker=broker, node_latency=latencies)

    def add_node(self, name: str, latency: float) -> None:
        """Register a node at an explicit distance from the broker."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.node_latency[name] = latency

    def latency_of(self, name: str) -> float:
        """One-way latency between ``name`` and the broker."""
        try:
            return self.node_latency[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}; call add_node first") from None

    def subscribe(self, topic: str, node: str) -> Subscription:
        """Subscribe ``node``'s mailbox to ``topic`` at its placed latency."""
        return self.broker.subscribe(topic, name=node, latency=self.latency_of(node))
