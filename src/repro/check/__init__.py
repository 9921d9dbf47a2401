"""Correctness tooling: invariant monitors and the reference oracle.

Two layers, from always-on to on-demand:

* :mod:`repro.check.invariants` -- a declarative registry of the run's
  conservation / ordering / contest-state-machine laws, and the live
  :class:`~repro.check.invariants.InvariantMonitor` the engine hooks
  call when ``EngineConfig(check=...)`` (or ``--check-invariants``) is
  set.  Violations raise
  :class:`~repro.check.invariants.InvariantViolation` with the offending
  trace slice.
* :mod:`repro.check.oracle` -- a deliberately simple re-implementation
  of the headline accounting (makespan, MB downloaded, cache misses),
  replayed from a run's :class:`~repro.metrics.trace.Trace` and compared
  against the engine's own aggregation (differential testing).

The scenario fuzzer and its planted bugs run whole deployments, so they
sit above the host, in :mod:`repro.fuzz`.
"""

from repro.check.invariants import (
    INVARIANTS,
    CheckConfig,
    Invariant,
    InvariantMonitor,
    InvariantViolation,
    as_check_config,
)
from repro.check.oracle import OracleMismatch, OracleSummary, replay_trace, verify_run

__all__ = [
    "CheckConfig",
    "INVARIANTS",
    "Invariant",
    "InvariantMonitor",
    "InvariantViolation",
    "OracleMismatch",
    "OracleSummary",
    "as_check_config",
    "replay_trace",
    "verify_run",
]
