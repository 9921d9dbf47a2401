"""Scheduler registry: build any policy by name.

The experiment harness and CLI refer to schedulers by string; this
module maps those strings to the policy factories, forwarding keyword
arguments (e.g. ``make_scheduler("bidding", window_s=0.5)``).
"""

from __future__ import annotations

from typing import Callable

from repro.schedulers.bidding import make_bidding_policy
from repro.schedulers.bar import make_bar_policy
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.baseline import make_baseline_policy
from repro.schedulers.delay import make_delay_policy
from repro.schedulers.matchmaking import make_matchmaking_policy
from repro.schedulers.random_ import make_random_policy, make_round_robin_policy
from repro.schedulers.spark import make_spark_policy

#: name -> factory accepting that scheduler's keyword arguments.
SCHEDULERS: dict[str, Callable[..., SchedulerPolicy]] = {
    "bar": make_bar_policy,
    "baseline": make_baseline_policy,
    "bidding": make_bidding_policy,
    "spark": make_spark_policy,
    "matchmaking": make_matchmaking_policy,
    "delay": make_delay_policy,
    "random": make_random_policy,
    "round-robin": make_round_robin_policy,
}


def make_scheduler(name: str, **kwargs: object) -> SchedulerPolicy:
    """Construct a scheduler policy by registry name.

    Unknown names raise ``KeyError`` listing the valid choices; invalid
    keyword arguments propagate from the specific factory.
    """
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        valid = ", ".join(sorted(SCHEDULERS))
        raise KeyError(f"unknown scheduler {name!r}; valid: {valid}") from None
    return factory(**kwargs)
