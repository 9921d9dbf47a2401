"""Deliberately buggy components that the checkers must catch.

Self-validation for :mod:`repro.check`: if the invariant monitors are
worth their keep, planting a known bug must raise
:class:`~repro.check.invariants.InvariantViolation`, and the fuzzer must
shrink the failure to a small deterministic reproducer.  Two plants:

* :class:`DoubleAllocateMasterPolicy` -- a push scheduler that assigns
  every job to *two* workers, violating ``exactly-once-allocation`` the
  instant the second assignment is recorded.
* :class:`OverdeliveringPipe` -- a shared-origin pipe that moves bytes
  at several times its stated capacity, violating
  ``pipe-no-overdelivery`` on the first completed transfer.
* :class:`BuggyMigratorController` -- a reconfiguration controller that
  silently drops the first checkpointed job of every migration instead
  of rebinding it, violating ``migration-conservation`` when the
  migration settles.

The plants live in their own :data:`PLANTED` registry, *not* in
:data:`repro.schedulers.registry.SCHEDULERS` -- the golden determinism
test sweeps every registered scheduler and must never pick up a bug on
purpose.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.bandwidth import FairSharePipe
from repro.schedulers.base import (
    MasterPolicy,
    PassiveWorkerPolicy,
    SchedulerPolicy,
)
from repro.workload.job import Job


class DoubleAllocateMasterPolicy(MasterPolicy):
    """BUGGY ON PURPOSE: assigns each arriving job to two workers.

    Modelled on the random scheduler, but every job is shipped twice --
    possibly to the same worker.  With monitors on, the second
    ``master.assign`` trips ``exactly-once-allocation``; with monitors
    off, the run silently double-executes work (exactly the failure mode
    the monitors exist to surface).
    """

    name = "planted:double-allocate"

    def on_job(self, job: Job) -> None:
        self.master.assign(job, self.master.arbitrary_worker())
        self.master.assign(job, self.master.arbitrary_worker())


def make_double_allocate_policy() -> SchedulerPolicy:
    """Package the double-allocating plant for the engine."""
    return SchedulerPolicy(
        name="planted:double-allocate",
        master_factory=DoubleAllocateMasterPolicy,
        worker_factory=PassiveWorkerPolicy,
    )


class OverdeliveringPipe(FairSharePipe):
    """BUGGY ON PURPOSE: completes transfers faster than capacity allows.

    Ignores fair sharing entirely and finishes every transfer at
    ``boost`` times the pipe's full capacity, so each completion delivers
    ``boost``x more megabytes than ``capacity * elapsed`` permits --
    a conservation-of-bytes violation the monitor's
    ``pipe-no-overdelivery`` law must flag.
    """

    def __init__(self, sim, capacity_mbps: float, boost: float = 4.0, hooks=None) -> None:
        super().__init__(sim, capacity_mbps, hooks=hooks)
        if boost <= 1.0:
            raise ValueError(f"boost must exceed 1 to be a bug, got {boost}")
        self.boost = float(boost)

    def transfer(self, size_mb: float, done: Callable[[float], None]) -> None:
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        if size_mb == 0:
            self.sim.call_soon(done, 0.0, urgent=False)
            return
        elapsed = size_mb / (self.capacity_mbps * self.boost)
        self.sim.call_later(elapsed, self._complete, size_mb, elapsed, done)

    def _complete(
        self, size_mb: float, elapsed: float, done: Callable[[float], None]
    ) -> None:
        # Report honestly on the seam, exactly as the real pipe does;
        # the *numbers* are the bug, not the reporting.
        for hook in self.hooks.transfer_complete:
            hook(self.capacity_mbps, size_mb, elapsed, self.sim.now)
        self.sim.call_soon(done, elapsed, urgent=False)


def plant_overdelivering_origin(runtime, capacity_mbps: Optional[float] = None):
    """Swap a built runtime's shared origin for an over-delivering one.

    Call between ``WorkflowRuntime(...)`` and ``run()``.  Replaces
    ``runtime._origin`` and every worker link's ``upstream`` so all cache
    misses route through the buggy pipe.  When the runtime was built
    without a shared origin, one is conjured at ``capacity_mbps``
    (default 50 MB/s) -- the bug needs an origin to corrupt.
    """
    previous = getattr(runtime, "_origin", None)
    if capacity_mbps is None:
        capacity_mbps = previous.capacity_mbps if previous is not None else 50.0
    pipe = OverdeliveringPipe(runtime.sim, capacity_mbps=capacity_mbps, hooks=runtime.hooks)
    runtime._origin = pipe
    for node in runtime.workers.values():
        node.machine.link.upstream = pipe
    return pipe


def plant_buggy_migrator(runtime) -> None:
    """Make the runtime build a job-dropping migration controller.

    Call between ``WorkflowRuntime(...)`` and ``run()``; the runtime
    must carry a non-trivial reconfiguration plan with at least one
    migration, or the plant never executes.  The first checkpointed job
    of each migration is discarded instead of rebound -- it is off the
    source worker's books and never reaches another, so the monitor's
    ``migration-conservation`` invariant fires the moment the migration
    settles (and without monitors, the run wedges on the lost job,
    which is exactly the failure mode the invariant exists to surface).
    """
    from repro.reconfig.controller import ReconfigController

    class BuggyMigratorController(ReconfigController):
        """BUGGY ON PURPOSE: drops the first checkpointed job."""

        def _rebind_all(self, jobs, source, entry):
            super()._rebind_all(jobs[1:], source, entry)

    runtime.reconfig_controller_factory = BuggyMigratorController


#: Planted-bug registry, mirroring ``SCHEDULERS`` in shape.  Pipe plants
#: are applied post-build (see :func:`plant_overdelivering_origin`), so
#: only scheduler-shaped plants appear here.
PLANTED: dict[str, Callable[..., SchedulerPolicy]] = {
    "planted:double-allocate": make_double_allocate_policy,
}


__all__ = [
    "DoubleAllocateMasterPolicy",
    "OverdeliveringPipe",
    "PLANTED",
    "make_double_allocate_policy",
    "plant_buggy_migrator",
    "plant_overdelivering_origin",
]
