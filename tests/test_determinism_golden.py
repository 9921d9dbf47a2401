"""The determinism pin, checked scheduler by scheduler.

``golden_determinism.json`` records, for every registered scheduler, the
exact per-iteration metrics of one fixed cell
(:func:`repro.experiments.golden.record_determinism_scheduler`).  The
comparison is exact, floats included: any change to event ordering,
float arithmetic or RNG draw order shows up here.  Re-record after a
deliberate behaviour change, and review the diff::

    PYTHONPATH=src python -m repro golden determinism
"""

import json

import pytest

from repro.experiments.golden import FIXTURE_DIR, record_determinism_scheduler
from repro.schedulers.registry import SCHEDULERS

GOLDEN = json.loads((FIXTURE_DIR / "golden_determinism.json").read_text(encoding="utf-8"))


def test_fixture_covers_every_registered_scheduler():
    assert set(GOLDEN) == set(SCHEDULERS), (
        "re-record the determinism pin for the new/removed schedulers"
    )


@pytest.mark.parametrize("scheduler", sorted(GOLDEN))
def test_fixed_seed_metrics_are_bit_identical(scheduler):
    assert json.loads(json.dumps(record_determinism_scheduler(scheduler))) == GOLDEN[scheduler]
