"""The shrinking scenario fuzzer and the bugs planted to validate it.

* :mod:`repro.fuzz.fuzzer` -- seeded random scenario generation
  (cluster x workload x fault plan x scheduler), run with monitors and
  oracle enabled, with greedy shrinking of failures to a minimal JSON
  reproducer that ``repro run --scenario`` replays (CLI: ``repro fuzz``).
* :mod:`repro.fuzz.planted` -- deliberately buggy components (a
  double-allocating scheduler, an over-delivering pipe, a migrator that
  drops jobs) that the monitors of :mod:`repro.check` must catch and
  the fuzzer must shrink.

Both run whole deployments, so the package sits above the host
(:mod:`repro.host`).
"""

from repro.fuzz.fuzzer import (
    PLANTS,
    Failure,
    FuzzReport,
    Scenario,
    ScenarioOutcome,
    fuzz,
    generate_scenario,
    run_scenario,
    shrink,
)
from repro.fuzz.planted import PLANTED, plant_overdelivering_origin

__all__ = [
    "Failure",
    "FuzzReport",
    "PLANTED",
    "PLANTS",
    "Scenario",
    "ScenarioOutcome",
    "fuzz",
    "generate_scenario",
    "plant_overdelivering_origin",
    "run_scenario",
    "shrink",
]
