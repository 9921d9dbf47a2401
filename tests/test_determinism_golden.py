"""Golden fixed-seed determinism: metrics must be bit-identical.

``golden_determinism.json`` records, for every registered scheduler, the
exact per-iteration metrics of one fixed cell (workload ``80%_small``,
profile ``fast-slow``, seed 7, two iterations with persisting caches).
The fixture was captured before the kernel hot-path overhaul; these
tests compare with **exact** float equality, so any change to event
ordering, float arithmetic or RNG draw order in the kernel, the fluid
network model or the broker shows up as a failure here.

If a *deliberate* behavioural change invalidates the goldens, re-record
with::

    PYTHONPATH=src python -m repro golden determinism

(and justify the diff in the commit message -- bit-level drift is the
exact thing this fixture exists to catch).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import CellSpec, run_cell

GOLDEN_PATH = Path(__file__).parent / "golden_determinism.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: The cell every scheduler is replayed on (must match the fixture).
WORKLOAD = "80%_small"
PROFILE = "fast-slow"
SEED = 7
ITERATIONS = 2


def _observed(result):
    return {
        "iteration": result.iteration,
        "makespan_s": result.makespan_s,
        "cache_misses": result.cache_misses,
        "cache_hits": result.cache_hits,
        "data_load_mb": result.data_load_mb,
        "jobs_completed": result.jobs_completed,
    }


def test_fixture_covers_every_registered_scheduler():
    from repro.schedulers.registry import SCHEDULERS

    assert set(GOLDEN) == set(SCHEDULERS), (
        "golden fixture out of sync with the scheduler registry; "
        "re-record it for the new/removed schedulers"
    )


@pytest.mark.parametrize("scheduler", sorted(GOLDEN))
def test_fixed_seed_metrics_are_bit_identical(scheduler):
    results = run_cell(
        CellSpec(
            scheduler=scheduler,
            workload=WORKLOAD,
            profile=PROFILE,
            seed=SEED,
            iterations=ITERATIONS,
        )
    )
    expected = GOLDEN[scheduler]
    assert len(results) == len(expected)
    for result, exp in zip(results, expected):
        # Exact equality on floats is deliberate: the determinism
        # contract is bit-level, not approximate.
        assert _observed(result) == exp, f"{scheduler} iteration {result.iteration}"


# -- the same contract at the fleet sizes the benchmark measures -------------

SCALE_PATH = Path(__file__).parent / "golden_scale.json"


def test_scale_cells_are_bit_identical():
    """``bidding``, ``baseline``, ``matchmaking``, ``delay`` and ``spark``
    at 100 and 400 workers (and one 100-worker ``bidding`` and one
    ``baseline`` cell with ``obs`` + ``check`` + ``trace`` on): full
    result rows, per-worker bid counts, and the observed cells' trace /
    flow / decision digests."""
    from repro.experiments.golden import explain_drift, record_scale

    committed = json.loads(SCALE_PATH.read_text(encoding="utf-8"))
    current = record_scale()
    assert current == committed, "\n".join(explain_drift(committed, current))
