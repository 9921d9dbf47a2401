"""Self-test of the benchmark instrument (not part of tier-1).

    python -m pytest bench/tests

Runs the benchmark in ``--quick`` mode -- every workload shrunk until
all six finish in seconds -- and checks the *instrument*: the output
schema, that ``BENCHMARK.json`` and the output name exactly the same
workloads and metrics, that the layer shares sum to one, that a traced
run repeats its call and boundary counts exactly, and that nothing in
``bench/`` reaches for a private name of the program.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [spec["name"] for spec in CATALOGUE["workloads"]]
#: The coordinator of the real backend reads sockets as the kernel
#: delivers them, so its call counts are not a function of the seed.
SEED_PURE = [name for name in WORKLOADS if name != "exec-real"]


def run_quick(tmp_path: Path, tag: str, *extra: str) -> tuple[dict, list[dict]]:
    """One ``--quick`` run into ``tmp_path``; the result document and
    the contract lines (the last line of output per workload)."""
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seed", "11", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(out.read_text()), [json.loads(line) for line in lines[-len(WORKLOADS):]]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_quick(tmp_path_factory.mktemp("untraced"), "result")


@pytest.fixture(scope="module")
def traced_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traced")


@pytest.fixture(scope="module")
def traced_twice(traced_dir):
    return (
        run_quick(traced_dir, "first", "--trace", "1"),
        run_quick(traced_dir, "second", "--trace", "1"),
    )


def test_catalogue_names_are_well_formed():
    names = WORKLOADS + [
        spec["name"] for kind in ("end_to_end", "per_layer") for spec in CATALOGUE[kind]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in [spec["name"] for spec in CATALOGUE["end_to_end"]]
    assert CATALOGUE["paths"] == ["bench"]


def test_untraced_output_matches_the_catalogue(untraced):
    document, lines = untraced
    assert document["quick"] is True and document["trace"] == 0
    assert list(document["workloads"]) == WORKLOADS
    for key in ("nproc", "platform", "commit", "seed", "load1_at_start", "python", "numpy"):
        assert key in document["host"], key
    units = {spec["name"]: spec["unit"] for spec in CATALOGUE["end_to_end"]}
    for workload, line in zip(WORKLOADS, lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(units), workload
        for name, metric in line["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert metric["value"] > 0, (workload, name)  # end-to-end metrics are never 0
        result = document["workloads"][workload]
        assert result["reps"] >= 2 and result["failed_share"] == 0.0
        assert result["behaviour"]["completed"] == result["behaviour"]["attempted"]


def test_traced_output_matches_the_catalogue(traced_twice, traced_dir):
    (document, lines), _second = traced_twice
    wanted = {spec["name"]: spec["unit"] for spec in CATALOGUE["per_layer"]}
    nonzero: set[str] = set()
    for workload, line in zip(WORKLOADS, lines):
        assert line["correct"] is True, document["workloads"][workload]["problems"]
        assert set(line["metrics"]) == set(wanted), workload
        for name, metric in line["metrics"].items():
            assert metric["unit"] == wanted[name]
            if metric["value"]:
                nonzero.add(name)
        shares = [m["value"] for name, m in line["metrics"].items() if name.endswith(".self_share")]
        assert len(shares) == 18
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload
        spans = json.loads((traced_dir / f"trace_{workload}.json").read_text())["spans"]
        assert {"setup.import", "setup.build", "rep.0"} <= {span["name"] for span in spans}
        assert all(span["workload"] == workload and span["end_s"] >= span["start_s"] for span in spans)
    # Vice versa: every per-layer metric is produced by some workload
    # (counters of events that a healthy quick run never has excepted).
    quiet = {"engine.redispatches_per_job", "exec.redispatches", "failed_share", "faults.crashes"}
    assert set(wanted) - nonzero <= quiet, sorted(set(wanted) - nonzero - quiet)


def test_traced_counts_repeat_exactly(traced_twice):
    (first, _), (second, _) = traced_twice
    for workload in SEED_PURE:
        a = first["workloads"][workload]["metrics"]
        b = second["workloads"][workload]["metrics"]
        for name in a:
            if name.endswith("_per_job") or name in ("faults.crashes", "serve.scale_actions", "serve.queue_peak"):
                assert a[name]["value"] == b[name]["value"], (workload, name)
        assert first["workloads"][workload]["digest"] == second["workloads"][workload]["digest"]


def test_exec_layer_works_only_on_exec_real(traced_twice):
    (document, _), _second = traced_twice
    for workload in WORKLOADS:
        calls = document["workloads"][workload]["metrics"]["exec.calls_per_job"]["value"]
        assert (calls > 0) == (workload == "exec-real"), workload


def test_bench_imports_no_private_name_of_the_program():
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                names = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names if alias.name.split(".")[0] == "repro"
                         for part in alias.name.split(".")]
            else:
                continue
            private = [name for name in names if name.startswith("_")]
            assert not private, f"{path.name}: private import {private}"
        if path != Path(__file__).resolve():
            assert "REPRO_FLEET_SOA" not in path.read_text(), path.name


def test_compare_accepts_a_run_against_itself(untraced, tmp_path):
    document, _lines = untraced
    result = tmp_path / "result.json"
    result.write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(result), str(result)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout and "changed" not in done.stdout
    assert done.stdout.count("identical") == len(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, exit non-zero."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
