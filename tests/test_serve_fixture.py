"""The service pin, checked cell by cell, and the paths its cells pin.

``golden_service.json`` is recorded by ``repro golden service``
(:data:`repro.experiments.golden.SERVICE_CELLS`).  Each cell compares
with exact equality, floats included.  Re-record after a deliberate
behaviour change, and review the diff::

    PYTHONPATH=src python -m repro golden service
"""

import json

import pytest

from repro.experiments.golden import (
    FIXTURE_DIR,
    SERVICE_CELLS,
    record_deadline_message,
    record_service_cell,
)


def _committed() -> dict:
    return json.loads((FIXTURE_DIR / "golden_service.json").read_text(encoding="utf-8"))


def test_fixture_covers_every_cell():
    assert sorted(_committed()["cells"]) == sorted(SERVICE_CELLS)


@pytest.mark.parametrize("name", sorted(SERVICE_CELLS))
def test_cell_matches_its_recording(name):
    assert json.loads(json.dumps(record_service_cell(name))) == _committed()["cells"][name]


def test_the_pinned_cells_take_the_paths_they_pin():
    cells = _committed()["cells"]
    assert cells["baseline-delay"]["decisions"]["delay:queue_full"] > 0
    assert cells["baseline-delay"]["decisions"]["delay:rate_limited"] > 0
    assert cells["baseline-delay"]["report"]["shed"] == 0
    assert any(worker.startswith("e") for _, worker in cells["bar-crashes"]["restarts"])
    # The restart lands before the first burst (1.6 s in), on BAR's unseeded table.
    assert cells["bar-restart-unseeded"]["restarts"] == [[0.5, "w1"]]
    assert cells["bidding-rebalance"]["report"]["scale_ups"] > 0
    assert cells["baseline-observed"]["probes"][:2] == ["master.outstanding", "fleet.active"]


def test_a_service_past_its_deadline_says_what_is_left():
    assert record_deadline_message() == _committed()["deadline_message"] == (
        "service did not quiesce within 30.0 simulated seconds "
        "(15 jobs outstanding, 2 pending at admission)"
    )
