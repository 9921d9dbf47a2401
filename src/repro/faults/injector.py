"""Deterministic fault injection.

The :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a running simulation: it arms timers for every schedule entry,
kills and restarts workers, degrades links, partitions the broker and
opens message-loss windows.  All randomness comes from the injector's
own RNG substream (split from the run seed), so the same plan + seed
produces bit-identical fault timelines regardless of scheduler noise.

The injector deliberately knows nothing about the runtime layer: worker
restarts go through a ``restart`` callback supplied by the host
(:meth:`repro.engine.runtime.Deployment.restart_worker`), which keeps
the import graph acyclic (engine imports faults, never the reverse).

Every action is appended to :attr:`FaultInjector.events` as
``(time, kind, detail)`` tuples -- the reproducibility tests compare
these logs across runs of the same seed.  Each action also goes out on
the run's ``fault`` seam (:mod:`repro.hooks`), which the metrics
collector writes into the main :class:`~repro.metrics.trace.Trace` as a
``fault_*`` event, so exported timelines show crashes, partitions and
heals next to the job lifecycle.
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
from repro.hooks import Hooks

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
    master, broker:
        Recovery bookkeeping and partition/loss control.
    restart:
        Callback ``restart(name) -> None`` rebuilding a dead worker.
        ``None`` disables restarts (crash entries with restart delays
        then leave the worker down and the event log records the skip).
    loss_rng:
        Generator installed on the broker during loss windows when the
        broker has none of its own.
    hooks:
        The run's observer seams (see :mod:`repro.hooks`).
    """

    def __init__(
        self,
        sim,
        plan: FaultPlan,
        rng,
        workers: dict,
        master,
        broker,
        restart: Optional[Callable[[str], None]] = None,
        loss_rng=None,
        hooks: Optional[Hooks] = None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.workers = workers
        self.master = master
        self.broker = broker
        if plan.partitions or plan.message_loss:
            broker.will_degrade = True
        self.restart = restart
        self.loss_rng = loss_rng
        #: The run's observer seams (see :mod:`repro.hooks`).  Injected
        #: faults go out on ``fault`` as context, so a violation's trace
        #: slice shows the crash/partition that provoked it.
        self.hooks = hooks if hooks is not None else Hooks()
        #: Chronological ``(sim_time, kind, detail)`` action log.
        self.events: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every schedule entry: a callback machine whose first turn
        is an URGENT ``call_soon`` and each wait a ``call_later``, the
        heap positions a generator process per entry would take, which
        the scale fixture's fault cells pin."""
        sim = self.sim
        for crash in self.plan.crashes:
            sim.call_soon(sim.call_later, crash.at_s, self._crash, crash)
        for renewal in self.plan.renewals:
            if renewal.start_s > 0:
                sim.call_soon(sim.call_later, renewal.start_s, self._renew, renewal, 0)
            else:
                sim.call_soon(self._renew, renewal, 0)
        for entry in self.plan.degradations:
            sim.call_soon(sim.call_later, entry.start_s, self._degrade, entry)
        for entry in self.plan.partitions:
            sim.call_soon(sim.call_later, entry.start_s, self._partition, entry)
        for entry in self.plan.message_loss:
            sim.call_soon(sim.call_later, entry.start_s, self._lose, entry)

    # -- helpers -------------------------------------------------------
    def _record(self, kind: str, detail: str) -> None:
        for hook in self.hooks.fault:
            hook(kind, detail, self.sim.now)
        self.events.append((self.sim.now, kind, detail))

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
        for hook in self.hooks.worker_crashed:
            hook(name, self.sim.now)
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

    # -- schedule entries ----------------------------------------------
    def _crash(self, crash: WorkerCrash) -> None:
        victim = self._kill(crash.worker)
        if victim is not None and crash.restart_after_s is not None:
            self.sim.call_later(crash.restart_after_s, self._restart, victim)

    def _renew(self, renewal: CrashRenewal, crashes: int) -> None:
        """Draw the next crash's gap and arm it, unless the renewal is over."""
        if renewal.max_crashes is not None and crashes >= renewal.max_crashes:
            return
        gap = float(self.rng.exponential(renewal.mtbf_s))
        if renewal.end_s is not None and self.sim.now + gap >= renewal.end_s:
            return
        self.sim.call_later(gap, self._renewal_crash, renewal, crashes)

    def _renewal_crash(self, renewal: CrashRenewal, crashes: int) -> None:
        victim = self._kill(None, renewal.targets)
        if victim is not None:
            crashes += 1
            if renewal.mttr_s is not None:
                repair = float(self.rng.exponential(renewal.mttr_s))
                # A repair is an entry of its own: one URGENT turn arms
                # its wait.
                sim = self.sim
                sim.call_soon(sim.call_later, repair, self._restart, victim)
        self._renew(renewal, crashes)

    def _degrade(self, entry: LinkDegradation) -> None:
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
        self.sim.call_later(entry.end_s - entry.start_s, self._restore, names, saved)

    def _restore(self, names, saved: list) -> None:
        # A worker restarted mid-window owns a fresh Machine/Link, so
        # writing to its old link is a no-op.
        for link, bandwidth, latency in saved:
            link.bandwidth_mbps = bandwidth
            link.latency = latency
        self._record("restore", ",".join(names))

    def _partition(self, entry: NetworkPartition) -> None:
        pid = self.broker.add_partition(frozenset(entry.group))
        self._record("partition", ",".join(sorted(entry.group)))
        self.sim.call_later(entry.end_s - entry.start_s, self._heal, entry, pid)

    def _heal(self, entry: NetworkPartition, pid: int) -> None:
        self.broker.remove_partition(pid)
        self._record("heal", ",".join(sorted(entry.group)))

    def _lose(self, entry: MessageLoss) -> None:
        broker = self.broker
        saved = (broker.drop_probability, broker.rng)
        broker.drop_probability = entry.probability
        if broker.rng is None:
            broker.rng = self.loss_rng
        self._record("loss-start", f"p={entry.probability:g}")
        self.sim.call_later(entry.end_s - entry.start_s, self._unlose, saved)

    def _unlose(self, saved: tuple) -> None:
        broker = self.broker
        broker.drop_probability, broker.rng = saved
        self._record("loss-end", f"p={saved[0]:g}")


__all__ = ["FaultInjector"]
