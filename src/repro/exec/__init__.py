"""repro.exec -- a real multi-process execution backend.

Everything elsewhere in this repository *simulates* the paper's
distributed fleet; this package *runs* one.  Worker processes execute
sandboxed Python task handlers, report over loopback sockets with
heartbeats, and survive genuine SIGKILLs -- while the deterministic
simulator keeps making every allocation decision (plan-then-execute;
see :mod:`repro.exec.plan`).  The differential harness
(:mod:`repro.exec.diff`) replays one seeded scenario through both
backends and asserts they agree.

Layout::

    protocol.py   JSON-lines wire format, the one line parser, ControlClient
    handlers.py   the closed, sandboxed task-handler registry
    plan.py       ExecPlan capture off the sim's assignment seam
    worker.py     the worker process: one select loop over one socket
    pool.py       the coordinator: one asyncio.Protocol per peer, queues,
                  heartbeats, recovery
    control.py    dispatch / drain / rebind / stats / kill verbs
    diff.py       sim-vs-real differential harness
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "repro.exec.control": ("ControlClient", "handle_control"),
        "repro.exec.diff": (
            "DiffCell",
            "DiffReport",
            "diff_matrix",
            "run_diff",
            "smoke_runtime",
            "smoke_stream",
        ),
        "repro.exec.handlers": ("HANDLERS", "HandlerError", "payload_for", "run_handler"),
        "repro.exec.plan": (
            "Decision",
            "ExecPlan",
            "PlanJob",
            "PlanWorker",
            "capture_service_plan",
            "capture_workflow_plan",
        ),
        "repro.exec.pool": (
            "ExecBackend", "ExecConfig", "ExecError", "ExecReport", "KillSpec", "execute_service"
        ),
    },
)
