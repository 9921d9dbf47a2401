"""Deterministic fault-injection process.

The :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a running simulation: it spawns one kernel process per schedule
entry, kills and restarts workers, degrades links, partitions the broker
and opens message-loss windows.  All randomness comes from the injector's
own RNG substream (split from the run seed), so the same plan + seed
produces bit-identical fault timelines regardless of scheduler noise.

The injector deliberately knows nothing about the runtime layer: worker
restarts go through a ``restart`` callback supplied by the host
(:func:`repro.engine.runtime.restart_worker`), which keeps the import
graph acyclic (engine imports faults, never the reverse).

Every action is appended to :attr:`FaultInjector.events` as
``(time, kind, detail)`` tuples -- the reproducibility tests compare
these logs across runs of the same seed.  Each action is also surfaced
into the run's main :class:`~repro.metrics.trace.Trace` as a ``fault_*``
event, so exported timelines show crashes, partitions and heals next to
the job lifecycle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import (
    CrashRenewal,
    FaultPlan,
    LinkDegradation,
    MessageLoss,
    NetworkPartition,
    WorkerCrash,
)

#: Injector action kind -> ``fault_*`` trace event kind.
_FAULT_KIND = {
    "crash": "fault_crash",
    "crash-skipped": "fault_crash_skipped",
    "restart": "fault_restart",
    "restart-skipped": "fault_restart_skipped",
    "degrade": "fault_degrade",
    "restore": "fault_restore",
    "partition": "fault_partition",
    "heal": "fault_heal",
    "loss-start": "fault_loss_start",
    "loss-end": "fault_loss_end",
}

#: Kinds whose ``detail`` is a bare worker name (stored in the trace
#: event's ``worker`` column instead of ``detail``).
_WORKER_DETAIL = frozenset({"crash", "restart"})


class FaultInjector:
    """Executes a :class:`FaultPlan` against live engine objects.

    Parameters
    ----------
    sim, plan:
        The kernel and the scenario to run on it.
    rng:
        Dedicated numpy Generator for fault draws (victim selection,
        renewal inter-arrival times).  Must be split from the run seed
        so injections never perturb workload/noise streams.
    workers:
        The host's live ``name -> WorkerNode`` mapping.  Read at action
        time (not captured per-entry), so restarts that swap nodes are
        picked up automatically.
    master, broker, metrics:
        Recovery bookkeeping, partition/loss control and counters.
    restart:
        Callback ``restart(name) -> None`` rebuilding a dead worker.
        ``None`` disables restarts (crash entries with restart delays
        then leave the worker down and the event log records the skip).
    loss_rng:
        Generator installed on the broker during loss windows when the
        broker has none of its own.
    """

    def __init__(
        self,
        sim,
        plan: FaultPlan,
        rng,
        workers: dict,
        master,
        broker,
        metrics,
        restart: Optional[Callable[[str], None]] = None,
        loss_rng=None,
        monitor=None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.workers = workers
        self.master = master
        self.broker = broker
        if plan.partitions or plan.message_loss:
            broker.will_degrade = True
        self.metrics = metrics
        self.restart = restart
        self.loss_rng = loss_rng
        #: Optional live invariant checker (see :mod:`repro.check`).
        #: Injected faults are reported to it as context, so a violation's
        #: trace slice shows the crash/partition that provoked it.
        self.monitor = monitor
        #: Chronological ``(sim_time, kind, detail)`` action log.
        self.events: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one kernel process per schedule entry."""
        for crash in self.plan.crashes:
            self.sim.process(self._one_shot(crash))
        for renewal in self.plan.renewals:
            self.sim.process(self._renewal(renewal))
        for degradation in self.plan.degradations:
            self.sim.process(self._degradation(degradation))
        for partition in self.plan.partitions:
            self.sim.process(self._partition(partition))
        for window in self.plan.message_loss:
            self.sim.process(self._loss_window(window))

    # -- helpers -------------------------------------------------------
    def _record(self, kind: str, detail: str) -> None:
        if self.monitor is not None:
            self.monitor.on_fault(kind, detail, self.sim.now)
        self.events.append((self.sim.now, kind, detail))
        if kind in _WORKER_DETAIL:
            self.metrics.record_fault(self.sim.now, _FAULT_KIND[kind], worker=detail)
        else:
            self.metrics.record_fault(self.sim.now, _FAULT_KIND[kind], detail=detail)

    def _candidates(self, targets=()) -> list[str]:
        """Workers eligible to be killed right now (alive + active)."""
        names = targets or sorted(self.workers)
        return [
            name
            for name in sorted(names)
            if name in self.workers
            and self.workers[name].alive
            and name in self.master.active_workers
        ]

    def _pick_victim(self, targets=()) -> Optional[str]:
        candidates = self._candidates(targets)
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]

    def _kill(self, name: Optional[str], targets=()) -> Optional[str]:
        """Kill ``name`` (or a random eligible victim); never the last worker.

        Returns the victim's name, or ``None`` when the kill was skipped.
        """
        if name is None:
            name = self._pick_victim(targets)
        if name is None:
            self._record("crash-skipped", "no eligible victim")
            return None
        node = self.workers.get(name)
        if node is None or not node.alive:
            self._record("crash-skipped", f"{name} already down")
            return None
        # Node-level truth, not the master's view: a just-killed worker's
        # failure report is still in flight, so ``master.active_workers``
        # lags by one delivery latency and two near-simultaneous crashes
        # could wipe the whole fleet through the stale guard.
        alive = sum(1 for node in self.workers.values() if node.alive)
        if alive <= 1:
            self._record("crash-skipped", f"{name} is the last live worker")
            return None
        self._record("crash", name)
        self.metrics.worker_crashed(self.sim.now, name)
        node.kill()
        return name

    def _restart(self, name: str) -> None:
        if self.restart is None:
            self._record("restart-skipped", f"{name}: no restart callback")
            return
        if name in self.master.active_workers:
            self._record("restart-skipped", f"{name} already active")
            return
        self._record("restart", name)
        self.restart(name)

    # -- schedule processes --------------------------------------------
    def _one_shot(self, crash: WorkerCrash):
        yield self.sim.timeout(crash.at_s)
        victim = self._kill(crash.worker)
        if victim is not None and crash.restart_after_s is not None:
            yield self.sim.timeout(crash.restart_after_s)
            self._restart(victim)

    def _renewal(self, renewal: CrashRenewal):
        if renewal.start_s > 0:
            yield self.sim.timeout(renewal.start_s)
        crashes = 0
        while renewal.max_crashes is None or crashes < renewal.max_crashes:
            gap = float(self.rng.exponential(renewal.mtbf_s))
            if renewal.end_s is not None and self.sim.now + gap >= renewal.end_s:
                return
            yield self.sim.timeout(gap)
            victim = self._kill(None, renewal.targets)
            if victim is None:
                continue
            crashes += 1
            if renewal.mttr_s is not None:
                repair = float(self.rng.exponential(renewal.mttr_s))
                self.sim.process(self._delayed_restart(victim, repair))

    def _delayed_restart(self, name: str, delay: float):
        yield self.sim.timeout(delay)
        self._restart(name)

    def _degradation(self, entry: LinkDegradation):
        yield self.sim.timeout(entry.start_s)
        names = entry.targets or sorted(self.workers)
        saved = []
        for name in names:
            node = self.workers.get(name)
            if node is None:
                continue
            link = node.machine.link
            saved.append((link, link.bandwidth_mbps, link.latency))
            link.bandwidth_mbps *= entry.bandwidth_factor
            link.latency += entry.extra_latency_s
        self._record(
            "degrade",
            f"{','.join(names)} x{entry.bandwidth_factor:g} +{entry.extra_latency_s:g}s",
        )
        yield self.sim.timeout(entry.end_s - entry.start_s)
        # Restore saved values.  A worker restarted mid-window owns a
        # fresh Machine/Link, so writing to its old link is a no-op.
        for link, bandwidth, latency in saved:
            link.bandwidth_mbps = bandwidth
            link.latency = latency
        self._record("restore", ",".join(names))

    def _partition(self, entry: NetworkPartition):
        yield self.sim.timeout(entry.start_s)
        pid = self.broker.add_partition(frozenset(entry.group))
        self._record("partition", ",".join(sorted(entry.group)))
        yield self.sim.timeout(entry.end_s - entry.start_s)
        self.broker.remove_partition(pid)
        self._record("heal", ",".join(sorted(entry.group)))

    def _loss_window(self, entry: MessageLoss):
        yield self.sim.timeout(entry.start_s)
        saved_p = self.broker.drop_probability
        saved_rng = self.broker.rng
        self.broker.drop_probability = entry.probability
        if self.broker.rng is None:
            self.broker.rng = self.loss_rng
        self._record("loss-start", f"p={entry.probability:g}")
        yield self.sim.timeout(entry.end_s - entry.start_s)
        self.broker.drop_probability = saved_p
        self.broker.rng = saved_rng
        self._record("loss-end", f"p={saved_p:g}")


__all__ = ["FaultInjector"]
