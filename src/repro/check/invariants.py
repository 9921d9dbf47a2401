"""Runtime invariant monitors.

The paper's correctness claims are stated as *laws* over a run --
conservation (every broadcast job is allocated exactly once, admitted
equals completed plus failed, transferred bytes match modelled
repository sizes), ordering/causality (no message delivered before its
publish, per-channel FIFO), and the bidding contest state machine.
Until now those laws were asserted post-hoc on a handful of traced runs
in ``tests/test_protocol_invariants.py``; this module checks them
*continuously on any run*.

Design
------
* :data:`INVARIANTS` is a declarative registry of :class:`Invariant`
  records (name, law family, statement).  Tests enumerate it; violation
  messages cite it.
* :class:`InvariantMonitor` is the live checker: engine components hold
  an optional ``monitor`` attribute (``None`` by default) and call its
  hooks at the few lifecycle points that matter.  When monitoring is
  off every hook site costs exactly one ``is not None`` test -- the
  near-zero-overhead contract the benchmarks gate.
* A violation raises :class:`InvariantViolation` carrying the registry
  record, a detail string, and the monitor's recent-event window (the
  offending trace slice), so a failure names the law *and* shows the
  events leading up to it.

Enable monitoring with ``EngineConfig(check=True)`` (or a
:class:`CheckConfig` for fine-grained control), or ``--check-invariants``
on the CLI.  The monitor is purely observational: it never draws
randomness, schedules events, or mutates engine state, so enabling it
cannot change a run's results -- only whether the run is allowed to be
wrong quietly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Invariant:
    """One registered law.

    Attributes
    ----------
    name:
        Stable identifier (used by ``CheckConfig.disable`` and tests).
    law:
        Family: ``"conservation"``, ``"ordering"`` or ``"contest"``.
    description:
        The statement of the law, phrased as what must hold.
    """

    name: str
    law: str
    description: str


#: Valid law families.
LAW_FAMILIES = frozenset({"conservation", "ordering", "contest"})

#: name -> Invariant; the declarative registry.
INVARIANTS: dict[str, Invariant] = {}


def _register(name: str, law: str, description: str) -> Invariant:
    if law not in LAW_FAMILIES:
        raise ValueError(f"unknown law family {law!r}")
    if name in INVARIANTS:
        raise ValueError(f"duplicate invariant {name!r}")
    invariant = Invariant(name=name, law=law, description=description)
    INVARIANTS[name] = invariant
    return invariant


# -- conservation laws -----------------------------------------------------
_register(
    "exactly-once-allocation",
    "conservation",
    "a job is bound to a worker exactly once per dispatch permit: the "
    "initial submission grants one assignment, and each recorded "
    "re-dispatch (orphan recovery / straggler timeout) grants one more",
)
_register(
    "at-most-once-completion",
    "conservation",
    "a job that was never orphaned and never failed completes at most "
    "once; duplicate completions are legal only after an orphan event "
    "(the re-dispatch race) or on a job already declared failed",
)
_register(
    "completion-conservation",
    "conservation",
    "at end of run, submitted == completed + failed (no job is lost and "
    "none is double-counted)",
)
_register(
    "completion-implies-submission",
    "conservation",
    "only submitted jobs may complete or fail",
)
_register(
    "cache-hit-requires-fetch",
    "conservation",
    "a worker's cache hit on a repository requires a prior fetch "
    "(download or warm preload) of that repository by that worker",
)
_register(
    "pipe-no-overdelivery",
    "conservation",
    "a shared-pipe transfer of S MB takes at least S / capacity seconds: "
    "the pipe never delivers bytes faster than its configured capacity",
)
_register(
    "service-conservation",
    "conservation",
    "when the service intake closes, admitted == completed + failed",
)
_register(
    "migration-conservation",
    "conservation",
    "every job checkpointed off a worker for migration is rebound to a "
    "target exactly once: a rebind requires a prior checkpoint (no "
    "duplication) and no checkpointed job is still awaiting its rebind "
    "when the migration settles or the run ends (no loss)",
)
_register(
    "swap-completeness",
    "conservation",
    "a scheduler hot-swap hands every job the old policy still owned "
    "(parked, queued or mid-contest) to the successor policy: the "
    "imported job set covers the exported one",
)

# -- ordering / causality laws ---------------------------------------------
_register(
    "no-early-delivery",
    "ordering",
    "no message is delivered before it was published",
)
_register(
    "fifo-per-pair",
    "ordering",
    "deliveries on one (topic, sender, receiver) channel preserve publish "
    "order (drops may create gaps, but never reorderings or duplicates; "
    "a partition holds a sender's reliable messages and flushes them in "
    "order, so cross-sender interleaving at one mailbox is legal)",
)
_register(
    "delivery-requires-publish",
    "ordering",
    "every delivered message was previously published to the broker",
)
_register(
    "start-consumes-enqueue",
    "ordering",
    "a worker starts executing a job only after enqueueing exactly that "
    "job; each enqueue feeds at most one start",
)

# -- bidding contest state machine -----------------------------------------
_register(
    "contest-per-permit",
    "contest",
    "a job's contest opens once per dispatch permit (plus one zero-bid "
    "re-contest when recovery is enabled)",
)
_register(
    "bid-after-announce",
    "contest",
    "a bid references a previously announced contest",
)
_register(
    "contest-window-bounded",
    "contest",
    "a contest closes within the bidding window plus delivery slack",
)
_register(
    "winner-among-bidders",
    "contest",
    "a contest closed full/fast/timeout names a winner that actually bid",
)
_register(
    "assignment-matches-winner",
    "contest",
    "the assignment following a closed contest binds the job to the "
    "contest's recorded winner",
)


class InvariantViolation(RuntimeError):
    """A monitored law was broken.

    Attributes
    ----------
    invariant:
        The registry record of the broken law.
    detail:
        What specifically went wrong (ids, counts, times).
    events:
        The monitor's recent-event window (time, kind, info) leading up
        to the violation -- the offending trace slice.
    """

    def __init__(self, invariant: Invariant, detail: str, events: tuple = ()):
        self.invariant = invariant
        self.detail = detail
        self.events = tuple(events)
        slice_text = "\n".join(
            f"    t={time:.6f} {kind}: {info}" for time, kind, info in self.events
        )
        super().__init__(
            f"invariant {invariant.name!r} ({invariant.law}) violated: {detail}\n"
            f"  law: {invariant.description}\n"
            f"  recent events:\n{slice_text if slice_text else '    (none recorded)'}"
        )


@dataclass(frozen=True)
class CheckConfig:
    """Fine-grained monitor configuration.

    ``EngineConfig(check=True)`` is shorthand for ``CheckConfig()``.

    Attributes
    ----------
    disable:
        Invariant names to skip (must exist in :data:`INVARIANTS`).
    recent_events:
        Size of the rolling event window attached to violations.
    contest_slack_s:
        Delivery slack allowed on top of the bidding window for the
        ``contest-window-bounded`` law (bids and closes travel through
        the broker, so a close can trail the window by one latency).
    """

    disable: tuple[str, ...] = ()
    recent_events: int = 40
    contest_slack_s: float = 0.5

    def __post_init__(self) -> None:
        unknown = set(self.disable) - set(INVARIANTS)
        if unknown:
            raise ValueError(f"unknown invariant names in disable: {sorted(unknown)}")
        if self.recent_events < 1:
            raise ValueError("recent_events must be >= 1")
        if self.contest_slack_s < 0:
            raise ValueError("contest_slack_s must be >= 0")


def as_check_config(value) -> Optional[CheckConfig]:
    """Normalise ``EngineConfig.check`` (bool or CheckConfig) to a config.

    Returns ``None`` when checking is off.
    """
    if value is None or value is False:
        return None
    if value is True:
        return CheckConfig()
    if isinstance(value, CheckConfig):
        return value
    raise TypeError(f"check must be a bool or CheckConfig, got {type(value).__name__}")


#: Absolute slack for pipe-delivery arithmetic (sub-resolution transfers
#: are force-completed by the fluid model; see FairSharePipe._reschedule).
_PIPE_TOLERANCE_MB = 1e-6


class InvariantMonitor:
    """Live checker attached to one run's engine objects.

    One instance is shared by the master, every worker node, the broker,
    any shared-origin pipe, the metrics collector (contest events), the
    service runtime and the fault injector.  All hooks are synchronous
    observations; a broken law raises :class:`InvariantViolation` at the
    exact simulated moment it becomes observable.
    """

    def __init__(
        self,
        config: Optional[CheckConfig] = None,
        recovery_enabled: bool = False,
    ) -> None:
        self.config = config or CheckConfig()
        self.recovery_enabled = recovery_enabled
        #: Bidding window of the run's master policy (None = not bidding,
        #: disables the window-bound law).  Set by the runtime wiring.
        self.contest_window_s: Optional[float] = None
        #: The run's main :class:`~repro.metrics.trace.Trace`, when one
        #: is recorded (set by the runtime wiring).  Job-centric
        #: violations use its per-job index to append the offending
        #: job's full lifecycle to the violation's event slice.
        self.trace = None
        self._disabled = frozenset(self.config.disable)
        #: Rolling (time, kind, template, args) window: :attr:`events`.
        self._recent: deque = deque(maxlen=self.config.recent_events)
        #: Count of checks performed (diagnostics / tests).
        self.checks = 0

        # Job lifecycle state.
        self._submitted: set[str] = set()
        self._completed: set[str] = set()
        self._failed: set[str] = set()
        self._orphaned: set[str] = set()
        self._assign_counts: dict[str, int] = {}
        self._redispatches: dict[str, int] = {}

        # Live-reconfiguration state (repro.reconfig).
        self._migrating: dict[str, str] = {}  # job_id -> source worker
        self._migrations: dict[str, int] = {}  # job_id -> rebind permits
        self._swap_exported: frozenset = frozenset()

        # Worker-side state.
        self._enqueued: dict[str, list[str]] = {}  # worker -> pending job_ids
        self._fetched: dict[str, set[str]] = {}  # worker -> repo ids fetched

        # Broker state.
        self._publish_seq = 0
        #: id(message) -> publish seq / time / sender; kept for the run
        #: (messages stay referenced by mailboxes/held buffers while
        #: undelivered).  Three flat dicts rather than one of tuples: a
        #: delivered message's id is reused by a later one at the
        #: allocator's whim, and an overwritten tuple would move the
        #: garbage collector's allocation count -- and with it the moment
        #: cyclic garbage is finalised -- from run to run.
        self._published: dict[int, int] = {}
        self._published_at: dict[int, float] = {}
        self._published_by: dict[int, Optional[str]] = {}
        self._channel_last_seq: dict[tuple, int] = {}

        # Contest state machine.
        self._announce_counts: dict[str, int] = {}
        self._announce_times: dict[str, float] = {}
        self._open_bidders: dict[str, set[str]] = {}
        self._pending_winner: dict[str, str] = {}

    # -- plumbing ------------------------------------------------------

    def _note(self, time: float, kind: str, template: str, *args) -> None:
        # ``args`` (ids, counts, times: nothing mutable) fill ``template``
        # only if somebody reads the window.
        self._recent.append((time, kind, template, args))

    @property
    def events(self) -> deque:
        """Rolling (time, kind, info) window -- the violation context."""
        worded = (
            (time, kind, template.format(*args) if args else template)
            for time, kind, template, args in self._recent
        )
        return deque(worded, maxlen=self._recent.maxlen)

    def _violate(self, name: str, detail: str, job_id: Optional[str] = None) -> None:
        if name in self._disabled:
            return
        events = tuple(self.events)
        if job_id is not None and self.trace is not None and self.trace.enabled:
            lifecycle = tuple(
                (event.time, f"trace:{event.kind}", f"{event.job_id} @ {event.worker}")
                for event in self.trace.for_job(job_id)
            )
            events = events + lifecycle
        raise InvariantViolation(INVARIANTS[name], detail, events)

    # -- master hooks --------------------------------------------------

    def on_submitted(self, job_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "submitted", job_id)
        self._submitted.add(job_id)

    def on_assigned(self, job_id: str, worker: str, now: float) -> None:
        self.checks += 1
        self._note(now, "assigned", "{} -> {}", job_id, worker)
        count = self._assign_counts.get(job_id, 0) + 1
        self._assign_counts[job_id] = count
        permits = (
            1 + self._redispatches.get(job_id, 0) + self._migrations.get(job_id, 0)
        )
        if count > permits:
            self._violate(
                "exactly-once-allocation",
                f"job {job_id!r} bound to {worker!r} is assignment #{count} "
                f"but only {permits} dispatch permit(s) were granted",
                job_id=job_id,
            )
        winner = self._pending_winner.pop(job_id, None)
        if winner is not None and winner != worker:
            self._violate(
                "assignment-matches-winner",
                f"job {job_id!r} assigned to {worker!r} but its contest "
                f"closed with winner {winner!r}",
                job_id=job_id,
            )

    def on_redispatched(self, job_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "redispatched", job_id)
        self._redispatches[job_id] = self._redispatches.get(job_id, 0) + 1

    def on_orphaned(self, job_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "orphaned", job_id)
        self._orphaned.add(job_id)

    def on_completed(self, job_id: str, worker: Optional[str], now: float) -> None:
        self.checks += 1
        self._note(now, "completed", "{} @ {}", job_id, worker)
        if job_id not in self._submitted:
            self._violate(
                "completion-implies-submission",
                f"job {job_id!r} completed but was never submitted",
                job_id=job_id,
            )
        if job_id in self._completed:
            self._violate(
                "at-most-once-completion",
                f"job {job_id!r} completed a second time",
                job_id=job_id,
            )
        self._completed.add(job_id)

    def on_duplicate_completion(self, job_id: str, worker: Optional[str], now: float) -> None:
        """A completion arrived for an already-terminal job.

        Legal only for jobs that were orphaned (the re-dispatch race the
        at-most-once guard exists for) or already declared failed (a
        held completion flushed after the master gave up on the job).
        """
        self.checks += 1
        self._note(now, "duplicate", "{} @ {}", job_id, worker)
        if job_id not in self._orphaned and job_id not in self._failed:
            self._violate(
                "at-most-once-completion",
                f"duplicate completion for job {job_id!r} from {worker!r}, "
                "which was never orphaned nor failed -- some component "
                "allocated or executed it twice",
                job_id=job_id,
            )

    def on_failed(self, job_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "failed", job_id)
        if job_id not in self._submitted:
            self._violate(
                "completion-implies-submission",
                f"job {job_id!r} declared failed but was never submitted",
                job_id=job_id,
            )
        self._failed.add(job_id)

    # -- worker hooks --------------------------------------------------

    def on_enqueued(self, job_id: str, worker: str, now: float) -> None:
        self.checks += 1
        self._note(now, "enqueued", "{} @ {}", job_id, worker)
        self._enqueued.setdefault(worker, []).append(job_id)

    def on_job_started(self, job_id: str, worker: str, now: float) -> None:
        self.checks += 1
        self._note(now, "started", "{} @ {}", job_id, worker)
        pending = self._enqueued.get(worker)
        if not pending or job_id not in pending:
            self._violate(
                "start-consumes-enqueue",
                f"worker {worker!r} started job {job_id!r} without a "
                "matching enqueue",
                job_id=job_id,
            )
            return
        pending.remove(job_id)

    def on_cache_preload(self, worker: str, repo_ids) -> None:
        self._fetched.setdefault(worker, set()).update(repo_ids)

    def on_cache_fetch(self, worker: str, repo_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "fetch", "{} @ {}", repo_id, worker)
        self._fetched.setdefault(worker, set()).add(repo_id)

    def on_cache_hit(self, worker: str, repo_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "cache_hit", "{} @ {}", repo_id, worker)
        if repo_id not in self._fetched.get(worker, ()):
            self._violate(
                "cache-hit-requires-fetch",
                f"worker {worker!r} hit repo {repo_id!r} without ever "
                "fetching or preloading it",
            )

    # -- broker hooks --------------------------------------------------

    def on_publish(self, topic: str, message, sender: Optional[str], now: float) -> None:
        self.checks += 1
        self._publish_seq += 1
        key = id(message)
        self._published[key] = self._publish_seq
        self._published_at[key] = now
        self._published_by[key] = sender

    def on_deliver(self, topic: str, receiver: str, message, now: float) -> None:
        self.checks += 1
        seq = self._published.get(id(message))
        if seq is None:
            self._note(now, "deliver", "?? -> {} on {}", receiver, topic)
            self._violate(
                "delivery-requires-publish",
                f"message {message!r} delivered to {receiver!r} on topic "
                f"{topic!r} without a recorded publish",
            )
            return
        published_at = self._published_at[id(message)]
        sender = self._published_by[id(message)]
        self._note(now, "deliver", "#{} -> {} on {}", seq, receiver, topic)
        if now < published_at:
            self._violate(
                "no-early-delivery",
                f"message #{seq} delivered to {receiver!r} at t={now} but "
                f"published at t={published_at}",
            )
        channel = (topic, sender, receiver)
        last = self._channel_last_seq.get(channel)
        if last is not None and seq <= last:
            self._violate(
                "fifo-per-pair",
                f"channel {channel!r} delivered publish #{seq} after #{last} "
                f"({'duplicate' if seq == last else 'reordering'})",
            )
        self._channel_last_seq[channel] = seq

    # -- shared-pipe hooks ---------------------------------------------

    def on_transfer_complete(
        self, capacity_mbps: float, size_mb: float, elapsed_s: float, now: float
    ) -> None:
        self.checks += 1
        self._note(now, "transfer", "{:g} MB in {:g}s", size_mb, elapsed_s)
        delivered_bound = capacity_mbps * elapsed_s + _PIPE_TOLERANCE_MB
        if size_mb > delivered_bound:
            self._violate(
                "pipe-no-overdelivery",
                f"transfer of {size_mb:g} MB completed in {elapsed_s:g}s on a "
                f"{capacity_mbps:g} MB/s pipe (needs >= {size_mb / capacity_mbps:g}s)",
            )

    # -- contest hooks (forwarded by the metrics collector) ------------

    def on_contest_opened(self, job_id: str, now: float) -> None:
        self.checks += 1
        self._note(now, "announced", job_id)
        count = self._announce_counts.get(job_id, 0) + 1
        self._announce_counts[job_id] = count
        allowed = 1 + self._redispatches.get(job_id, 0)
        if self.recovery_enabled:
            allowed += 1  # the single zero-bid re-contest
        if count > allowed:
            self._violate(
                "contest-per-permit",
                f"job {job_id!r} announced {count} times but only {allowed} "
                "contest(s) permitted",
                job_id=job_id,
            )
        self._announce_times[job_id] = now
        self._open_bidders[job_id] = set()

    def on_bid(self, job_id: str, worker: str, now: float) -> None:
        self.checks += 1
        self._note(now, "bid", "{} by {}", job_id, worker)
        opened = self._announce_times.get(job_id)
        if opened is None:
            self._violate(
                "bid-after-announce",
                f"bid from {worker!r} for job {job_id!r} that was never announced",
            )
            return
        self._open_bidders.setdefault(job_id, set()).add(worker)

    def on_contest_closed(
        self, job_id: str, winner: Optional[str], duration: float, outcome: str, now: float
    ) -> None:
        self.checks += 1
        self._note(now, "contest_closed", "{} -> {} ({})", job_id, winner, outcome)
        if job_id not in self._announce_times:
            self._violate(
                "bid-after-announce",
                f"contest for job {job_id!r} closed but was never announced",
            )
            return
        if self.contest_window_s is not None:
            limit = self.contest_window_s + self.config.contest_slack_s
            if duration > limit:
                self._violate(
                    "contest-window-bounded",
                    f"contest for job {job_id!r} ran {duration:g}s, over the "
                    f"{self.contest_window_s:g}s window (+{self.config.contest_slack_s:g}s slack)",
                )
        if outcome in ("full", "fast", "timeout"):
            bidders = self._open_bidders.get(job_id, set())
            if winner not in bidders:
                self._violate(
                    "winner-among-bidders",
                    f"contest for job {job_id!r} closed {outcome!r} with winner "
                    f"{winner!r} who never bid (bidders: {sorted(bidders)})",
                    job_id=job_id,
                )
        if winner is not None:
            self._pending_winner[job_id] = winner

    # -- live-reconfiguration hooks ------------------------------------

    def on_migration_checkpoint(self, job_id: str, source: str, now: float) -> None:
        """A job was checkpointed off ``source`` and awaits its rebind."""
        self.checks += 1
        self._note(now, "migrate_checkpoint", "{} off {}", job_id, source)
        self._migrating[job_id] = source
        # The job left the source's local queue; it must be re-enqueued
        # at the target before it may start again.
        pending = self._enqueued.get(source)
        if pending and job_id in pending:
            pending.remove(job_id)

    def on_migration_rebind(
        self, job_id: str, source: Optional[str], target: str, now: float
    ) -> None:
        """A checkpointed job is about to be bound to its target."""
        self.checks += 1
        self._note(now, "migrate_rebind", "{} {} -> {}", job_id, source, target)
        if job_id not in self._migrating:
            self._violate(
                "migration-conservation",
                f"job {job_id!r} rebound to {target!r} without a prior "
                "checkpoint -- the migrator duplicated a job the source "
                "still owns",
                job_id=job_id,
            )
            return
        del self._migrating[job_id]
        self._migrations[job_id] = self._migrations.get(job_id, 0) + 1

    def on_migration_settled(self, now: float) -> None:
        """A migration action finished issuing rebinds; nothing may dangle."""
        self.checks += 1
        self._note(now, "migrate_settled", "{} dangling", len(self._migrating))
        if self._migrating:
            job_id, source = next(iter(sorted(self._migrating.items())))
            self._violate(
                "migration-conservation",
                f"migration settled with {len(self._migrating)} checkpointed "
                f"job(s) never rebound (first: {job_id!r} off {source!r}) -- "
                "the migrator dropped work it drained from the source",
                job_id=job_id,
            )

    def on_swap_export(self, job_ids, old_policy: str, now: float) -> None:
        """The outgoing policy exported its owned-job set."""
        self.checks += 1
        self._swap_exported = frozenset(job_ids)
        self._note(now, "swap_export", "{} jobs from {}", len(self._swap_exported), old_policy)

    def on_swap_import(self, job_ids, new_policy: str, now: float) -> None:
        """The successor policy acknowledged the jobs it now owns."""
        self.checks += 1
        imported = frozenset(job_ids)
        exported = getattr(self, "_swap_exported", frozenset())
        self._note(now, "swap_import", "{} jobs into {}", len(imported), new_policy)
        missing = exported - imported
        if missing:
            self._violate(
                "swap-completeness",
                f"hot-swap into {new_policy!r} lost {len(missing)} job(s) the "
                f"old policy owned: {sorted(missing)[:5]}",
                job_id=sorted(missing)[0],
            )
        self._swap_exported = frozenset()

    # -- service hooks -------------------------------------------------

    def on_service_close(self, admitted: int, completed: int, failed: int, now: float) -> None:
        self.checks += 1
        self._note(
            now, "service_close", "admitted={} completed={} failed={}", admitted, completed, failed
        )
        if admitted != completed + failed:
            self._violate(
                "service-conservation",
                f"service intake closed with admitted={admitted} but "
                f"completed={completed} + failed={failed}",
            )

    # -- fault-injector hooks (context for violation slices) -----------

    def on_fault(self, kind: str, detail: str, now: float) -> None:
        self._note(now, f"fault:{kind}", detail)

    # -- end of run ----------------------------------------------------

    def final_check(self) -> None:
        """Run the end-of-run conservation laws.

        Called by the runtime after the simulation quiesces (and before
        any partial-failure escalation, so a broken law surfaces as the
        more fundamental error).
        """
        self.checks += 1
        if self._migrating:
            job_id, source = next(iter(sorted(self._migrating.items())))
            self._violate(
                "migration-conservation",
                f"run ended with {len(self._migrating)} checkpointed job(s) "
                f"never rebound (first: {job_id!r} off {source!r})",
                job_id=job_id,
            )
        submitted = len(self._submitted)
        completed = len(self._completed)
        failed = len(self._failed)
        if submitted != completed + failed:
            self._violate(
                "completion-conservation",
                f"run ended with submitted={submitted} but "
                f"completed={completed} + failed={failed}",
            )


__all__ = [
    "CheckConfig",
    "INVARIANTS",
    "Invariant",
    "InvariantMonitor",
    "InvariantViolation",
    "LAW_FAMILIES",
    "as_check_config",
]
