"""Every pin of :mod:`repro.experiments.golden`, checked once against
its committed file, and the one explainer naming a planted drift.

``determinism`` and ``service`` are checked part by part, one test per
scheduler or cell, in ``test_determinism_golden.py`` and
``test_serve_fixture.py``.

Re-record after a deliberate behaviour change, and review the diff::

    PYTHONPATH=src python -m repro golden [NAME ...]
"""

import dataclasses
import functools
import json
import operator

import pytest

from repro.experiments import golden

#: The four long experiment commands run nightly; tier-1 checks their
#: reduced renderings.
SLOW = {"fig3", "fig4", "ablations", "sensitivity"}

#: Pins checked part by part in their own test files.
BY_PART = {"determinism", "service"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in golden.PINS
        if name not in BY_PART
    ],
)
def test_pin_matches_its_recording(name, capsys):
    assert golden.check(golden.PINS[name]) == 0, capsys.readouterr().out


def _committed(pin):
    return pin.load(golden.pin_path(pin).read_text(encoding="utf-8"))


#: pin -> where a value is planted: a key path into its JSON, a text's line number.
PLANTED = {
    "determinism": ("bidding", 1, "makespan_s"),
    "perfetto": ("traceEvents", 40, "ts"),
    "critical_path": ("categories", "queue"),
    "reconfig": ("events", 2, "worker"),
    "scale": ("bidding-ack-timeout-25", "cache_misses"),
    "service": ("cells", "bar-crashes", "report", "completed"),
    "fig2": 5,
}


@pytest.mark.parametrize("name", PLANTED)
def test_a_planted_drift_is_named(name, tmp_path, capsys):
    pin, where = golden.PINS[name], PLANTED[name]
    recorded = _committed(pin)
    if pin.is_text:
        lines = recorded.splitlines(keepends=True)
        lines[where - 1] = "planted\n"
        planted, spelled = "".join(lines), f"line {where}"
    else:
        planted = json.loads(json.dumps(recorded))
        *parents, key = where
        functools.reduce(operator.getitem, parents, planted)[key] = "planted"
        spelled = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)[1:]
    path = golden.pin_path(pin, tmp_path)
    path.parent.mkdir(exist_ok=True)
    path.write_text(pin.render(planted), encoding="utf-8")
    # The current code "records" the committed value: no re-run.
    assert golden.check(dataclasses.replace(pin, record=lambda: recorded), tmp_path) == 1
    out = capsys.readouterr().out
    assert f"first difference at {spelled}:\n    committed: \"planted" in out
