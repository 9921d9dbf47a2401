"""The coordinator's control plane: verbs that drive a live pool.

The same four verbs the service layer uses on simulated workers --
plus ``kill`` for chaos -- operate on real processes here, so an
autoscaler or fault hook can manipulate the real fleet without knowing
which backend it is talking to (the drain/rebind shape follows the
worker-scheduler control surface of Madsen et al., arXiv:1602.03770):

``stats``
    snapshot of fleet, queues, counters, handoff and writes per job;
``dispatch``
    inject a new job at runtime (optionally pinned to a worker --
    otherwise placed by the locality-aware rule);
``drain``
    stop feeding a worker and re-home its undelivered backlog; jobs it
    is already executing finish normally (conservation holds);
``rebind``
    move one still-queued job to another worker;
``kill``
    SIGKILL a worker's process (the real
    :class:`~repro.faults.plan.WorkerCrash`).

Verbs arrive either over the socket (any ``hello role=control`` peer;
see :class:`~repro.exec.protocol.ControlClient`) or from the backend's
deterministic ``script`` hook.  Both funnel through
:func:`handle_control`, which validates and applies one message against
the backend and returns the reply payload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.exec import protocol
from repro.exec.plan import PlanJob

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.pool import ExecBackend


def _require_worker(backend: "ExecBackend", name: Any):
    state = backend.workers.get(name)
    if state is None:
        raise ValueError(f"unknown worker {name!r}")
    return state


def handle_control(backend: "ExecBackend", message: dict[str, Any]) -> dict[str, Any]:
    """Apply one control verb to a running backend; return the reply."""
    verb = message.get("type")
    if verb == protocol.STATS:
        return {"type": protocol.OK, "stats": backend.stats()}
    if verb == protocol.DISPATCH:
        return _dispatch(backend, message)
    if verb == protocol.DRAIN:
        return _drain(backend, message)
    if verb == protocol.REBIND:
        return _rebind(backend, message)
    if verb == protocol.KILL:
        state = _require_worker(backend, message.get("worker"))
        if state.proc is not None and state.proc.is_alive():
            state.proc.kill()
            return {"type": protocol.OK, "killed": state.name}
        return {"type": protocol.OK, "killed": None}
    raise ValueError(f"unknown control verb {verb!r}")


def _dispatch(backend: "ExecBackend", message: dict[str, Any]) -> dict[str, Any]:
    """Admit one new job into the running pool."""
    job = PlanJob(
        job_id=message["job_id"],
        task=message.get("task", "adhoc"),
        repo_id=message.get("repo_id"),
        size_mb=message.get("size_mb", 0.0),
        base_compute_s=message.get("base_compute_s", 0.0),
        handler=message.get("handler", "noop"),
    )
    if job.job_id in backend._jobs:
        raise ValueError(f"job {job.job_id!r} already known")
    worker = message.get("worker")
    if worker is not None:
        state = _require_worker(backend, worker)
        if not state.alive or state.draining:
            raise ValueError(f"worker {worker!r} cannot accept work")
        target = state.name
    else:
        target = backend.rebind_target(job)
        if target is None:
            raise ValueError("no live workers to dispatch to")
    backend._jobs[job.job_id] = job
    backend._admit(job, backend._now())
    backend._bind(job, target, redispatch=False)
    return {"type": protocol.OK, "job_id": job.job_id, "worker": target}


def _drain(backend: "ExecBackend", message: dict[str, Any]) -> dict[str, Any]:
    """Stop feeding a worker; re-home its undelivered backlog."""
    state = _require_worker(backend, message.get("worker"))
    state.draining = True
    moved = []
    backlog = list(state.ready)
    state.ready.clear()
    for job in backlog:
        target = backend.rebind_target(job, exclude=(state.name,))
        if target is None:
            # Nowhere to go: the job stays queued; dispatch resumes if
            # the drain is the fleet's last worker (it is not dead).
            state.ready.append(job)
            continue
        backend.rehome(job, target)
        moved.append([job.job_id, target])
    return {"type": protocol.OK, "draining": state.name, "moved": moved}


def _rebind(backend: "ExecBackend", message: dict[str, Any]) -> dict[str, Any]:
    """Move one still-queued (ready, undelivered) job to another worker."""
    job_id = message.get("job_id")
    target_state = _require_worker(backend, message.get("worker"))
    if not target_state.alive or target_state.draining:
        raise ValueError(f"worker {target_state.name!r} cannot accept work")
    for state in backend.workers.values():
        for job in state.ready:
            if job.job_id == job_id:
                state.ready.remove(job)
                backend.rehome(job, target_state.name)
                return {
                    "type": protocol.OK,
                    "job_id": job_id,
                    "worker": target_state.name,
                    "from": state.name,
                }
    raise ValueError(
        f"job {job_id!r} is not re-bindable (unknown, already dispatched, "
        "or terminal)"
    )


#: Blocking client, re-exported next to the verbs it speaks.
ControlClient = protocol.ControlClient
