"""The Crossflow-like distributed stream-processing engine.

Re-implements the execution model of Crossflow [Kolovos et al., MSR
2019] that the paper builds on: a master node that receives a stream of
jobs and collects results, worker nodes that execute jobs FIFO against
their local clone caches, and a pluggable *job allocation policy* --
the part the paper varies (Baseline opinionated workers vs. the Bidding
Scheduler vs. a Spark-style centralized allocator).

All communication flows through the simulated broker
(:class:`repro.net.broker.Broker`), mirroring the paper's dedicated
messaging instance.

* :mod:`repro.engine.messages` -- the wire protocol,
* :mod:`repro.engine.worker`   -- the worker runtime,
* :mod:`repro.engine.master`   -- the master runtime.

The host that wires a deployment around them (``Deployment``) and the
workflow runtime on it sit above this package, in :mod:`repro.host`.

Real (wall-clock, multi-process) execution of the same decisions lives
in :mod:`repro.exec`.
"""

from repro.engine.master import Master
from repro.engine.worker import WorkerNode

__all__ = ["Master", "WorkerNode"]
