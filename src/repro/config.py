"""Unified configuration-override surface for the run API.

The public entry points (:func:`repro.run_workflow`,
:func:`repro.run_service`, :class:`repro.experiments.runner.CellSpec`)
all accept plain keyword overrides instead of requiring callers to
construct every config dataclass by hand.  This module is the single
pathway those overrides flow through:

* :func:`resolve_overrides` splits one flat override mapping across
  several config dataclasses by field-name introspection, so the caller
  never has to know which knob lives on which class.
* :func:`apply_overrides` is the single-target shorthand
  (``dataclasses.replace`` on one config class).
* :func:`read_json` reads a plan given as inline JSON or ``@path``
  (``--faults``, ``--reconfig``, a fuzzer scenario).

Only canonical dataclass field names are accepted.  The deprecated
aliases of the 1.x series (``duration``, ``deadline``, ``max_inflight``,
``loss``, ``max_time``, ``fault_tolerance``) completed their one-release
grace period and were removed; an unknown key raises :class:`TypeError`
listing every accepted field, so a stale spelling fails loudly at the
call site instead of warning and limping on.

Keeping this in one place means every front door -- Python API, cell
specs, CLI -- validates keywords identically.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping


def _field_names(cls: type) -> set[str]:
    return {f.name for f in dataclasses.fields(cls) if f.init}


def resolve_overrides(
    overrides: Mapping[str, Any], *targets: type
) -> tuple[dict[str, Any], ...]:
    """Split a flat override mapping across config dataclasses.

    Each key is routed to the *first* target dataclass declaring a field
    of that name; the return value is one kwargs dict per target, in
    order.  A key no target accepts raises ``TypeError`` listing every
    accepted field, so typos (and retired alias spellings) fail loudly
    instead of silently configuring nothing.
    """
    if not targets:
        raise TypeError("resolve_overrides needs at least one target dataclass")
    field_sets = [_field_names(target) for target in targets]
    buckets: tuple[dict[str, Any], ...] = tuple({} for _ in targets)
    unknown = []
    for key, value in overrides.items():
        for bucket, names in zip(buckets, field_sets):
            if key in names:
                bucket[key] = value
                break
        else:
            unknown.append(key)
    if unknown:
        accepted = sorted(set().union(*field_sets))
        raise TypeError(
            f"unknown override(s) {sorted(unknown)}; accepted keywords: {accepted}"
        )
    return buckets


def apply_overrides(instance: Any, overrides: Mapping[str, Any]) -> Any:
    """A copy of ``instance`` with overrides applied."""
    (kwargs,) = resolve_overrides(overrides, type(instance))
    return dataclasses.replace(instance, **kwargs) if kwargs else instance


def read_json(source: str) -> Any:
    """The JSON value ``source`` spells inline, or, for ``@path``, the
    one in that file."""
    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as handle:
            source = handle.read()
    return json.loads(source)
