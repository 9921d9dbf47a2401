"""The observer seams: the one list of places where the model may be watched.

The allocation protocol -- master, workers, broker, bandwidth pipes,
the scheduling policies, the fault injector, the reconfiguration
controller, the service's intake and the real backend's coordinator --
is the model.  The metrics collector (counters and the job trace), the
invariant monitor, the ``obs`` recorder, the decision ledger, the
service's completion tracking and plan capture only watch it.
:data:`SEAMS` names each place they may watch from and the arguments
its hooks are called with.

A host builds one :class:`Hooks` table per run, hands it to the objects
it builds and subscribes its watchers, the collector first: a watcher
handles a seam by defining an ``on_<seam>`` method.  Every emission
site reads

    for hook in self.hooks.<seam>:
        hook(...)

so the subscribers of a seam run in subscription order, and a seam
nothing watches is an empty tuple: it makes no call.  What a decision
reads -- ``fleet.report``, ``policy.on_state_changed``, the link and
cache observers -- is model state, not a seam, and stays a direct call.
This module imports nothing from ``repro``.
"""

from __future__ import annotations

from types import MethodType

#: seam -> the arguments of its hooks.  ``job`` is the job object
#: (a :class:`~repro.workload.job.Job`, or the real backend's plan job),
#: ``policy`` the deciding policy (``name``, ``decision_snapshot``,
#: ``decision_context``), ``now`` the emitter's clock.
SEAMS: dict[str, tuple[str, ...]] = {
    # A run's start and end (the makespan's anchors).
    "run_started": ("now",),
    "run_finished": ("now",),
    # A job's life at the master (and at the real backend's coordinator).
    "submitted": ("job_id", "now"),
    "assigned": ("job", "worker", "policy", "now"),
    "redispatched": ("job_id", "now"),
    "orphaned": ("job_id", "worker", "now"),
    "completed": ("job", "worker", "now"),
    "duplicate_completion": ("job_id", "worker", "now"),
    "failed": ("job", "reason", "now"),
    "shed": ("job_id", "reason", "now"),
    # The fleet's membership.
    "worker_joined": ("worker", "now"),
    "worker_retired": ("worker", "now"),
    "worker_crashed": ("worker", "now"),
    "worker_restarted": ("worker", "now"),
    # A worker's queue and clone cache.
    "enqueued": ("job_id", "worker", "now"),
    "job_started": ("job_id", "worker", "now"),
    "cache_hit": ("job", "worker", "now"),
    "download_started": ("job", "worker", "now"),
    "cache_fetch": ("job", "worker", "mb", "now"),
    "cache_preload": ("worker", "repo_ids"),
    # The broker and the shared bandwidth pipes.
    "publish": ("topic", "message", "sender", "now"),
    "deliver": ("topic", "receiver", "message", "now"),
    "transfer_complete": ("capacity_mbps", "size_mb", "elapsed_s", "now"),
    "pipe_sample": ("label", "active", "now"),
    # Pull offers.
    "offered": ("job_id", "worker", "now"),
    "rejected": ("job_id", "worker", "now"),
    "accepted": ("job_id", "worker", "now"),
    # Bidding contests.
    "contest_opened": ("job_id", "now"),
    "bid": ("job_id", "worker", "cost", "now"),
    "contest_closed": ("job_id", "winner", "duration", "outcome", "now"),
    # Live reconfiguration.
    "migrate_request": ("source", "max_jobs", "now"),
    "migrate_skipped": ("source", "reason", "now"),
    "migrate_prewarm": ("job_id", "target", "repo_id", "now"),
    "migration_checkpoint": ("job_id", "source", "now"),
    "migration_rebind": ("job_id", "source", "target", "now"),
    "migration_ack_timeout": ("source", "now"),
    "migration_settled": ("now",),
    "swap_quiesce": ("old", "new", "now"),
    "swap_skipped": ("reason", "now"),
    "swap_export": ("job_ids", "policy", "now"),
    "swap_import": ("job_ids", "policy", "now"),
    "swap_done": ("old", "new", "now"),
    # A hot-swap's residue: a message for the previous policy, dropped.
    "swap_stale_drop": ("worker", "message", "now"),
    # Injected faults and the end of a service's intake.
    "fault": ("kind", "detail", "now"),
    "service_close": ("admitted", "completed", "failed", "now"),
}


#: watcher class -> its ``(seam, on_<seam> function)`` pairs, found once.
_HANDLERS: dict[type, tuple] = {}


class Hooks:
    """For each seam of :data:`SEAMS`, the tuple of its subscribers'
    ``on_<seam>`` bound methods, in subscription order."""

    def subscribe(self, watcher: object) -> None:
        """Add the ``on_<seam>`` methods of ``watcher``'s class, bound to
        it, behind each seam's present subscribers."""
        cls = type(watcher)
        if cls not in _HANDLERS:
            _HANDLERS[cls] = tuple(
                (seam, getattr(cls, "on_" + seam)) for seam in SEAMS if hasattr(cls, "on_" + seam)
            )
        handlers = _HANDLERS[cls]
        if not handlers:
            raise TypeError(f"{cls.__name__} handles no seam")
        table = self.__dict__
        for seam, handler in handlers:
            subscribed = table[seam] if seam in table else ()  # else the class default
            table[seam] = subscribed + (MethodType(handler, watcher),)


# Every seam starts unwatched: an empty tuple on the class, which a
# table shadows once something subscribes to it.
for _seam in SEAMS:
    setattr(Hooks, _seam, ())
del _seam
