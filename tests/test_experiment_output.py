"""The experiment commands' stdout, pinned byte for byte.

``tests/cli_stdout/<command>.txt`` is what ``python -m repro <command>``
prints at default arguments, for the seven experiment commands.
``<driver>_reduced.txt`` is a reduced-size rendering of each of the four
long drivers: one seed, fewer profiles and workloads, two settings per
sweep.  Tier-1 checks the three short commands and the four reduced
renderings; the four long default-size commands are ``slow`` (nightly).

Re-record after a deliberate change to what the drivers print::

    PYTHONPATH=src python tests/test_experiment_output.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "cli_stdout"

SHORT_COMMANDS = ("fig2", "tables", "faults")
LONG_COMMANDS = ("fig3", "fig4", "ablations", "sensitivity")


def _print(tables) -> None:
    from repro.experiments.grid import render

    print(render(tables))


def _fig3_reduced() -> None:
    from repro.experiments import fig3_aggregates
    from repro.experiments.grid import run_grids

    [sweep] = run_grids([fig3_aggregates.grid(seeds=(11,), profiles=("all-equal",))])
    _print(fig3_aggregates.tables(sweep))


def _fig4_reduced() -> None:
    from repro.experiments import fig4_breakdown
    from repro.experiments.grid import run_grids

    [sweep] = run_grids([fig4_breakdown.grid(
        seeds=(11,),
        profiles=("all-equal", "one-slow"),
        workloads=("80%_small", "all_diff_large"),
    )])
    _print(fig4_breakdown.tables(sweep))


def _sections(module, sections, settings) -> None:
    """Each titled section of ``module``, at the two settings given for it
    in ``settings`` (by grid function name) or at its fixed ones."""
    from repro.experiments.grid import run_grids

    grids = [
        build(settings[build.__name__]) if build.__name__ in settings else build()
        for _title, build in sections
    ]
    sweeps = run_grids(grids)
    _print([module.table(title, sweep) for (title, _), sweep in zip(sections, sweeps)])


def _ablations_reduced() -> None:
    from repro.experiments import ablations

    _sections(ablations, ablations.ABLATIONS, {
        "ablate_bid_window": (0.1, 1.0),
        "ablate_bid_compute": (0.0, 1.0),
        "ablate_noise": (0.0, 0.25),
        "ablate_cache_capacity": (float("inf"), 1024.0),
        "ablate_contest_concurrency": (1, 4),
        "ablate_popularity_skew": (0.0, 2.0),
        "ablate_shared_origin": (None, 10.0),
    })


def _sensitivity_reduced() -> None:
    from repro.experiments import sensitivity

    _sections(sensitivity, sensitivity.SWEEPS, {
        "sweep_worker_count": (5, 15),
        "sweep_job_count": (60, 120),
        "sweep_heterogeneity": (1.0, 8.0),
        "sweep_arrival_rate": (0.0, 10.0),
    })


REDUCED = {
    "fig3_reduced": _fig3_reduced,
    "fig4_reduced": _fig4_reduced,
    "ablations_reduced": _ablations_reduced,
    "sensitivity_reduced": _sensitivity_reduced,
}


def _command(name: str):
    def run() -> None:
        from repro.cli import main

        assert main([name]) == 0

    return run


def _stdout(fn) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        fn()
    return buffer.getvalue()


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", SHORT_COMMANDS)
def test_command_stdout(command):
    assert _stdout(_command(command)) == _fixture(command)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_rendering(name):
    assert _stdout(REDUCED[name]) == _fixture(name)


@pytest.mark.slow
@pytest.mark.parametrize("command", LONG_COMMANDS)
def test_long_command_stdout(command):
    assert _stdout(_command(command)) == _fixture(command)


if __name__ == "__main__":  # re-record every fixture
    FIXTURES.mkdir(exist_ok=True)
    renderers = {name: _command(name) for name in SHORT_COMMANDS + LONG_COMMANDS}
    renderers.update(REDUCED)
    for name, fn in renderers.items():
        (FIXTURES / f"{name}.txt").write_text(_stdout(fn), encoding="utf-8")
        print(f"recorded {FIXTURES / name}.txt")
