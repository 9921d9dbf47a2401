"""Pinned open-loop cells: the service host's every path, recorded.

``golden_service.json`` holds, for each cell below, the exact
:class:`~repro.serve.ServiceReport`, the assignment map and a digest of
the whole trace; the cells that exercise a particular path also pin what
shows it ran:

* ``bidding-burst`` / ``baseline-burst`` -- burst arrivals against both
  scheduler families;
* ``baseline-delay`` -- ``delay`` admission with a two-job queue and a
  rate limit, so arrivals wait for queue space *and* retry after a
  token-bucket hint (``delays`` counts both);
* ``bidding-rebalance`` -- the autoscaler with ``rebalance=True``;
* ``bar-crashes`` -- a crash/repair renewal under the autoscaler, so
  elastic ``e*`` workers die and are restarted (``restarts``) under a
  policy holding ``cache_view``/``speed_view``;
* ``baseline-observed`` -- obs and invariant checks on with a shared
  origin: probe names in registration order, their series, flows and
  the decision ledger;
* ``bidding-swap`` -- a live migration and a bidding -> baseline
  hot-swap on the service.

The values were recorded once and compare with exact equality, floats
included.  Re-record only for a deliberate behaviour change, and review
the diff::

    PYTHONPATH=src python tests/test_serve_fixture.py
"""

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.profiles import all_equal
from repro.engine.runtime import EngineConfig
from repro.faults import CrashRenewal, FaultPlan
from repro.obs import ObsConfig
from repro.reconfig import JobMigration, ReconfigPlan, SchedulerSwap
from repro.schedulers.registry import make_scheduler
from repro.serve import (
    AdmissionConfig,
    AutoscalerConfig,
    ServiceConfig,
    ServiceRuntime,
    make_arrivals,
)

FIXTURE_PATH = Path(__file__).parent / "golden_service.json"

#: cell name -> ServiceRuntime knobs (see :func:`build`).
CELLS = {
    "bidding-burst": dict(scheduler="bidding"),
    "baseline-burst": dict(scheduler="baseline"),
    "baseline-delay": dict(
        scheduler="baseline",
        duration=200.0,
        admission=AdmissionConfig(queue_cap=2, policy="delay", rate_limit=2.0, rate_burst=1),
    ),
    "bidding-rebalance": dict(
        scheduler="bidding",
        rate=1.5,
        autoscaler=AutoscalerConfig(min_workers=2, max_workers=10, rebalance=True, cooldown_s=20),
    ),
    "bar-crashes": dict(
        scheduler="bar",
        rate=1.5,
        duration=400.0,
        autoscaler=AutoscalerConfig(min_workers=2, max_workers=8, cooldown_s=20),
        faults=FaultPlan(renewals=(CrashRenewal(mtbf_s=60, mttr_s=20),)),
    ),
    "baseline-observed": dict(
        scheduler="baseline",
        rate=1.5,
        autoscaler=AutoscalerConfig(min_workers=2, max_workers=8, cooldown_s=20),
        engine=dict(obs=ObsConfig(probe_interval_s=5.0), check=True, shared_origin_mbps=40.0),
    ),
    "bidding-swap": dict(
        scheduler="bidding",
        reconfig=ReconfigPlan(
            migrations=(JobMigration(at_s=50.0, max_jobs=2),),
            swaps=(SchedulerSwap(at_s=100.0, scheduler="baseline"),),
        ),
    ),
}


def build(
    scheduler,
    rate=1.0,
    duration=300.0,
    admission=None,
    autoscaler=None,
    faults=None,
    reconfig=None,
    engine=None,
    seed=5,
) -> ServiceRuntime:
    return ServiceRuntime(
        profile=all_equal(),
        scheduler=make_scheduler(scheduler),
        arrivals=make_arrivals("burst", rate=rate),
        admission_config=admission,
        autoscaler_config=autoscaler,
        service_config=ServiceConfig(duration_s=duration),
        config=EngineConfig(seed=seed, **(engine or {})),
        faults=faults,
        reconfig=reconfig,
    )


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


def record(name: str) -> dict:
    """Run one cell and return what the fixture pins for it."""
    runtime = build(**CELLS[name])
    offer = runtime.admission.offer
    decisions = Counter()

    def counting_offer(job, tenant):
        decision = offer(job, tenant)
        decisions[f"{decision.action}:{decision.reason}"] += 1
        return decision

    runtime.admission.offer = counting_offer
    report = runtime.run()
    trace = runtime.metrics.trace
    cell = {
        "report": report.to_dict(),
        "assignments_sha256": _digest(runtime.master.assignments),
        "trace_events": len(trace),
        "trace_sha256": _digest(
            [(event.time, event.kind, event.job_id, event.worker, event.detail) for event in trace]
        ),
        "decisions": dict(sorted(decisions.items())),
        "restarts": [
            [event.time, event.worker] for event in trace if event.kind == "fault_restart"
        ],
    }
    if runtime.obs is not None:
        probes = runtime.obs.probes
        cell["probes"] = list(probes.probes)
        cell["probes_sha256"] = _digest({name: probes.series(name) for name in probes.probes})
        cell["flows_sha256"] = _digest([dataclasses.astuple(flow) for flow in runtime.obs.flows])
        cell["decisions_sha256"] = _digest(runtime.obs.ledger.to_dicts())
        cell["monitor_checks"] = runtime.monitor.checks
    # JSON round trip: what the committed file holds.
    return json.loads(json.dumps(cell))


def _committed() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_cell():
    assert sorted(_committed()["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_its_recording(name):
    assert record(name) == _committed()["cells"][name]


def test_the_pinned_cells_take_the_paths_they_pin():
    cells = _committed()["cells"]
    assert cells["baseline-delay"]["decisions"]["delay:queue_full"] > 0
    assert cells["baseline-delay"]["decisions"]["delay:rate_limited"] > 0
    assert cells["baseline-delay"]["report"]["shed"] == 0
    assert any(worker.startswith("e") for _, worker in cells["bar-crashes"]["restarts"])
    assert cells["bidding-rebalance"]["report"]["scale_ups"] > 0
    assert cells["baseline-observed"]["probes"][:2] == ["master.outstanding", "fleet.active"]


def _stalled() -> ServiceRuntime:
    return build("baseline", engine=dict(max_sim_time=30.0))


def test_a_service_past_its_deadline_says_what_is_left():
    with pytest.raises(RuntimeError) as raised:
        _stalled().run()
    assert str(raised.value) == _committed()["deadline_message"]


if __name__ == "__main__":
    cells = {name: record(name) for name in sorted(CELLS)}
    try:
        _stalled().run()
        raise SystemExit("the deadline cell finished; pick a shorter max_sim_time")
    except RuntimeError as error:
        message = str(error)
    FIXTURE_PATH.write_text(
        json.dumps({"cells": cells, "deadline_message": message}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(cells)} cells at {FIXTURE_PATH}")
