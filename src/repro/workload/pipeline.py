"""Crossflow-style workflow DSL.

Figure 1 of the paper shows a Crossflow pipeline: *tasks* (rectangles)
connected by *channels* (cylinders) that carry typed *jobs* (rounded
boxes).  This module reproduces that model:

* a :class:`Task` declares which job kinds it consumes and produces and
  supplies a ``handle`` function that, given a consumed job, returns the
  downstream jobs it spawns (the simulation analogue of the task's
  business logic),
* a :class:`Channel` carries one job kind from producer task(s) to
  consumer task(s),
* a :class:`Pipeline` validates the graph (every kind produced is
  consumed or terminal, no dangling tasks) and routes completed jobs'
  outputs to the tasks that consume them.

The engine (:mod:`repro.engine`) drives the pipeline: whenever a worker
completes a job, the master asks the pipeline which downstream jobs to
enqueue next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.workload.job import Job

#: Signature of a task handler: consumed job -> spawned downstream jobs.
Handler = Callable[[Job], list[Job]]


def _no_output(_job: Job) -> list[Job]:
    """Default handler for sink tasks: produce nothing."""
    return []


@dataclass
class Task:
    """A processing step in the pipeline.

    Attributes
    ----------
    name:
        Unique task name (e.g. ``"RepositorySearcher"``).
    consumes:
        Job kinds this task accepts.  A job's ``task`` field must name
        this task for it to be routed here.
    produces:
        Job kinds this task emits (documentation + validation).
    handle:
        Pure function mapping a consumed job to the jobs it spawns.
        It runs at *completion* time on the master (matching Crossflow,
        where results are sent back as new jobs: Listing 2 line 14).
    on_master:
        If ``True`` the task runs on the master (zero worker cost) --
        used for cheap aggregation sinks like the co-occurrence
        calculator.
    sim_work:
        Optional extra simulated work performed on the worker while
        executing a job of this task: ``(job, machine, sim, done)``
        starts it and calls ``done(result)`` when it is over.  The
        executor calls it in a turn of its own and scans one turn after
        ``done``.  Used e.g. for the GitHub search stage, whose cost is
        the API service's latency rather than data movement.
    """

    name: str
    consumes: tuple[str, ...]
    produces: tuple[str, ...] = ()
    handle: Handler = _no_output
    on_master: bool = False
    sim_work: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if not self.consumes:
            raise ValueError(f"task {self.name!r} must consume at least one kind")


@dataclass(frozen=True)
class Channel:
    """A typed stream of jobs between tasks (a cylinder in Figure 1)."""

    kind: str
    producer: Optional[str]  # None for the workflow source
    consumer: str


@dataclass
class Pipeline:
    """A validated task/channel graph."""

    name: str
    tasks: dict[str, Task] = field(default_factory=dict)
    channels: list[Channel] = field(default_factory=list)

    def add_task(self, task: Task) -> "Pipeline":
        """Register a task (duplicate names are an error)."""
        if task.name in self.tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self.tasks[task.name] = task
        return self

    def connect(self, kind: str, producer: Optional[str], consumer: str) -> "Pipeline":
        """Add a channel carrying ``kind`` from ``producer`` to ``consumer``.

        ``producer=None`` marks a workflow *source* channel (jobs
        injected from outside, e.g. the library CSV reader).
        """
        self.channels.append(Channel(kind=kind, producer=producer, consumer=consumer))
        return self

    def validate(self) -> None:
        """Check graph consistency; raises ``ValueError`` on problems."""
        for channel in self.channels:
            if channel.producer is not None and channel.producer not in self.tasks:
                raise ValueError(f"channel {channel.kind!r}: unknown producer {channel.producer!r}")
            if channel.consumer not in self.tasks:
                raise ValueError(f"channel {channel.kind!r}: unknown consumer {channel.consumer!r}")
            if channel.producer is not None:
                produced = self.tasks[channel.producer].produces
                if channel.kind not in produced:
                    raise ValueError(
                        f"task {channel.producer!r} does not produce {channel.kind!r}"
                    )
            if channel.kind not in self.tasks[channel.consumer].consumes:
                raise ValueError(
                    f"task {channel.consumer!r} does not consume {channel.kind!r}"
                )
        # Every task must be reachable: consume from some channel.
        fed = {channel.consumer for channel in self.channels}
        for task_name in self.tasks:
            if task_name not in fed:
                raise ValueError(f"task {task_name!r} has no incoming channel")

    def task_of(self, job: Job) -> Task:
        """The task that must process ``job`` (KeyError if unknown)."""
        try:
            return self.tasks[job.task]
        except KeyError:
            raise KeyError(f"job {job.job_id!r} targets unknown task {job.task!r}") from None

    def on_completion(self, job: Job) -> list[Job]:
        """Downstream jobs spawned by completing ``job``.

        Each spawned job must target a task in this pipeline.
        """
        children = self.task_of(job).handle(job)
        for child in children:
            if child.task not in self.tasks:
                raise ValueError(
                    f"task {job.task!r} spawned a job for unknown task {child.task!r}"
                )
        return children
