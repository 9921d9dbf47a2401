"""A run counts itself: ``Deployment.counts()`` and what its figures say.

The counts are a read-only projection of counters the kernel, the
broker, the links, the collector and the master keep anyway, so an
observer switched off costs exactly nothing: the bare run and each "off"
arm that ``benchmarks/`` times against it push the same heap entries and
send the same messages.  The counts are host-free, so this is an exact
gate where the wall-clock ones can only bound drift.  Recording the
trace is a witness -- contests and declines then go over the broker --
so a traced run counts more, which is what shows this gate can fail.
"""

from __future__ import annotations

import pytest

from repro.cluster.profiles import all_equal
from repro.experiments.golden import service_runtime
from repro.faults import FaultPlan
from repro.host import EngineConfig, WorkflowRuntime
from repro.obs import ObsConfig
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name

SEED = 11
KEYS = [
    "heap_pushes",
    "messages_published",
    "messages_delivered",
    "messages_dropped",
    "link_transfers",
    "contests_opened",
    "offers_made",
    "rejections_seen",
    "contests_computed",
    "declines_settled",
]


def counts(scheduler: str, faults=None, **engine) -> dict[str, int]:
    """The counts of ``80%_large`` on ``all-equal``, seed 11, untraced
    unless ``engine`` says otherwise."""
    _corpus, stream = job_config_by_name("80%_large").build(seed=SEED)
    runtime = WorkflowRuntime(
        profile=all_equal(),
        stream=stream,
        scheduler=make_scheduler(scheduler),
        config=EngineConfig(seed=SEED, **{"trace": False, **engine}),
        faults=faults,
    )
    runtime.run()
    return runtime.counts()


@pytest.fixture(scope="module", params=["bidding", "baseline"])
def bare(request):
    return request.param, counts(request.param)


@pytest.mark.parametrize(
    "arm",
    [
        pytest.param({"faults": FaultPlan()}, id="empty-fault-plan"),
        pytest.param({"obs": None}, id="obs-none"),
        pytest.param({"check": False}, id="check-off"),
    ],
)
def test_an_off_arm_counts_what_the_bare_run_counts(bare, arm):
    scheduler, expected = bare
    assert counts(scheduler, **arm) == expected


def test_the_ledger_adds_no_heap_entry_and_no_message(bare):
    scheduler, _ = bare
    assert counts(scheduler, obs=ObsConfig(ledger=False)) == counts(
        scheduler, obs=ObsConfig(ledger=True)
    )


def test_recording_the_trace_counts_more(bare):
    scheduler, expected = bare
    traced = counts(scheduler, trace=True)
    assert traced["heap_pushes"] > expected["heap_pushes"]
    assert traced["messages_published"] > expected["messages_published"]
    # The same jobs move the same data and are offered alike ...
    for key in ("link_transfers", "contests_opened", "offers_made", "rejections_seen"):
        assert traced[key] == expected[key]
    # ... but nothing is worked out ahead of time under a witness.
    assert traced["contests_computed"] == traced["declines_settled"] == 0


def test_the_bare_runs_work_their_exchanges_out_ahead_of_time():
    bidding, baseline = counts("bidding"), counts("baseline")
    assert bidding["contests_computed"] == bidding["contests_opened"] == 120
    assert baseline["declines_settled"] == baseline["rejections_seen"] > 0
    # Lossless, with no announcement broadcast: every message published
    # has one recipient.
    for run in (bidding, baseline):
        assert run["messages_delivered"] == run["messages_published"]
        assert run["messages_dropped"] == 0


def test_counts_are_read_only_and_outlive_the_run():
    runtime = service_runtime("bidding", duration=60.0)
    before = runtime.counts()
    assert list(before) == KEYS
    assert before["heap_pushes"] == 0
    runtime.run()
    after = runtime.counts()
    assert runtime.counts() == after  # reading pushes nothing
    assert after["heap_pushes"] > 0 and after["messages_delivered"] > 0
