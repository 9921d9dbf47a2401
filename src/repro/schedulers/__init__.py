"""Job-allocation policies.

Every policy is a pair of strategy objects plugged into the engine:

* a :class:`~repro.schedulers.base.MasterPolicy` deciding which worker
  gets each job,
* a :class:`~repro.schedulers.base.WorkerPolicy` implementing the
  worker-side behaviour (opinions, bids, pulls).

Implemented policies:

==================  =========================================================
``baseline``        Crossflow's opinionated pull/accept/reject scheduler
                    (Section 4) -- the paper's Baseline.
``bidding``         The paper's contribution (Section 5): contests in
                    :mod:`~repro.schedulers.contest`, the protocol in
                    :mod:`~repro.schedulers.bidding`.
``spark``           Spark-style centralized upfront allocation (the Figure 2
                    comparator).
``bar``             Jin et al. 2011 two-phase locality-then-balance upfront
                    allocation (related work).
``matchmaking``     He et al. 2011 (related work, future-work comparison).
``delay``           Zaharia et al. 2010 delay scheduling (related work).
``random``          Uniform random push assignment (control).
``round-robin``     Cyclic push assignment (control).
==================  =========================================================

Use :func:`repro.schedulers.registry.make_scheduler` to construct any of
them by name.
"""

from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.schedulers.registry import SCHEDULERS, make_scheduler

__all__ = [
    "MasterPolicy",
    "SCHEDULERS",
    "SchedulerPolicy",
    "WorkerPolicy",
    "make_scheduler",
]
