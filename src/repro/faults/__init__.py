"""Deterministic fault injection and recovery.

Declare *what goes wrong* with a :class:`FaultPlan` (crashes, renewal
processes, link degradation, partitions, message loss) and *how the
master responds* with a :class:`RecoveryConfig`; pass the plan as
``faults=`` to :func:`repro.run_workflow`, :func:`repro.run_service`,
:class:`~repro.host.WorkflowRuntime`,
:class:`~repro.serve.ServiceRuntime` or an experiment
:class:`~repro.experiments.runner.CellSpec`.  Injection draws from the
run's split RNG streams, so fault timelines are reproducible per seed.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashRenewal,
    FaultPlan,
    LinkDegradation,
    MessageLoss,
    NetworkPartition,
    RecoveryConfig,
    WorkerCrash,
)

__all__ = [
    "CrashRenewal",
    "FaultInjector",
    "FaultPlan",
    "LinkDegradation",
    "MessageLoss",
    "NetworkPartition",
    "RecoveryConfig",
    "WorkerCrash",
]
