"""Elastic worker-pool control with hysteresis.

The autoscaler watches one load signal -- backlog per active worker,
where backlog counts both jobs pending at admission and jobs already
inside the scheduler -- and resizes the fleet through the service
runtime's :meth:`~repro.serve.service.ServiceRuntime.scale_up` /
:meth:`~repro.serve.service.ServiceRuntime.scale_down` hooks.

Flap protection is threefold, the standard recipe:

* a **gap** between the scale-up and scale-down thresholds (a signal
  sitting between them changes nothing),
* a **cooldown** after any action before the next is considered,
* a **utilization gate** on scale-down: a fleet that is mostly busy is
  not shrunk even if the queue happens to be empty at the sample
  instant.

Scale-up workers start *cold* -- empty cache, fresh placement -- so the
locality cost of elasticity is faithfully modelled: a new worker misses
on every repository until it has built up its own working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.service import ServiceRuntime


@dataclass(frozen=True)
class AutoscalerConfig:
    """Hysteresis thresholds and pool bounds.

    Parameters
    ----------
    min_workers / max_workers:
        Hard bounds on the active pool size.
    check_interval_s:
        Sampling period of the control loop.
    scale_up_backlog:
        Add a worker when backlog per active worker reaches this.
    scale_down_backlog:
        Consider removing a worker when backlog per active worker is at
        or below this.  Must be strictly below ``scale_up_backlog``.
    scale_down_utilization:
        Utilization gate: scale down only if the busy fraction of the
        active fleet is also at or below this.
    cooldown_s:
        Minimum time between consecutive scaling actions.
    rebalance:
        After each scale-up, migrate queued jobs from the most-loaded
        worker onto the fleet (the new cold node is the least-loaded
        candidate, so it typically receives them), pre-warming its
        cache with each migrated job's repository -- cache resharding,
        so elastic capacity starts doing useful work immediately
        instead of waiting for the backlog to drain naturally.
        Requires the service runtime's reconfiguration controller.
    rebalance_max_jobs:
        How many queued jobs each rebalance migration may move.
    """

    min_workers: int = 1
    max_workers: int = 10
    check_interval_s: float = 5.0
    scale_up_backlog: float = 3.0
    scale_down_backlog: float = 0.5
    scale_down_utilization: float = 0.5
    cooldown_s: float = 60.0
    rebalance: bool = False
    rebalance_max_jobs: int = 2

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.scale_down_backlog >= self.scale_up_backlog:
            raise ValueError(
                "scale_down_backlog must be below scale_up_backlog (hysteresis gap)"
            )
        if not 0 <= self.scale_down_utilization <= 1:
            raise ValueError("scale_down_utilization must be in [0, 1]")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.rebalance_max_jobs < 1:
            raise ValueError("rebalance_max_jobs must be at least 1")


class Autoscaler:
    """The control loop; runs as one simulation process."""

    def __init__(self, service: "ServiceRuntime", config: AutoscalerConfig) -> None:
        self.service = service
        self.config = config
        self.scale_ups = 0
        self.scale_downs = 0
        self._last_action_at = float("-inf")
        self._timer = None

    # -- signals -----------------------------------------------------------

    def backlog_per_worker(self) -> float:
        """(admission depth + jobs inside the scheduler) / active workers."""
        service = self.service
        active = len(service.master.active_workers)
        backlog = service.admission.depth + service.master.outstanding
        return backlog / max(1, active)

    def busy_fraction(self) -> float:
        """Fraction of active workers currently executing or holding work."""
        service = self.service
        active = service.master.active_workers
        if not active:
            return 0.0
        # One vectorised count over the active/outstanding planes -- the
        # active plane equals ``master.active_workers`` exactly.
        return service.fleet.active_busy_count() / len(active)

    # -- the loop ----------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic control tick (called by the service runtime).

        Runs on a re-armed direct-callback timer
        (:meth:`~repro.sim.kernel.Simulator.call_later`) rather than a
        perpetual generator process; the tick stops re-arming once the
        service closes.
        """
        self._timer = self.service.sim.call_later(
            self.config.check_interval_s, self._tick
        )

    def _tick(self) -> None:
        if self.service.closed:
            return
        sim = self.service.sim
        self._evaluate(sim.now)
        sim.call_later(self.config.check_interval_s, self._tick, handle=self._timer)

    def _evaluate(self, now: float) -> None:
        active = len(self.service.master.active_workers)
        if active < self.config.min_workers:
            # Crashed capacity replacement: the pool fell below its
            # floor, which only faults can cause.  Replace immediately,
            # bypassing the cooldown -- waiting out a flap timer while
            # under-provisioned only deepens the backlog.
            self.service.scale_up()
            self.scale_ups += 1
            self._last_action_at = now
            self._maybe_rebalance()
            return
        if now - self._last_action_at < self.config.cooldown_s:
            return
        signal = self.backlog_per_worker()
        if signal >= self.config.scale_up_backlog and active < self.config.max_workers:
            self.service.scale_up()
            self.scale_ups += 1
            self._last_action_at = now
            self._maybe_rebalance()
        elif (
            signal <= self.config.scale_down_backlog
            and active > self.config.min_workers
            and self.busy_fraction() <= self.config.scale_down_utilization
        ):
            self.service.scale_down()
            self.scale_downs += 1
            self._last_action_at = now

    def _maybe_rebalance(self) -> None:
        """Shift queued work (and its data) toward fresh capacity."""
        if not self.config.rebalance:
            return
        controller = getattr(self.service, "reconfig_controller", None)
        if controller is None:
            return
        controller.request_migration(
            max_jobs=self.config.rebalance_max_jobs, prewarm=True
        )
