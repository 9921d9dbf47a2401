"""Tests for the top-level convenience API and remaining CLI paths."""

import pytest

from repro import compare_schedulers, run_workflow
from repro.host import EngineConfig


class TestRunWorkflow:
    def test_returns_one_result_per_iteration(self):
        runs = run_workflow(
            scheduler="round-robin",
            workload="80%_small",
            profile="all-equal",
            seed=2,
            iterations=2,
        )
        assert [run.iteration for run in runs] == [0, 1]
        assert all(run.scheduler == "round-robin" for run in runs)

    def test_scheduler_kwargs_forwarded(self):
        # A pathological window forces fallbacks; the kwarg must reach
        # the policy factory for that to happen.
        runs = run_workflow(
            scheduler="bidding",
            workload="80%_small",
            profile="all-equal",
            seed=2,
            iterations=1,
            window_s=0.05,
            bid_compute_s=0.5,
        )
        assert runs[0].contests_fallback > 0

    def test_unknown_scheduler_raises(self):
        with pytest.raises(KeyError):
            run_workflow(scheduler="oracle", iterations=1)


class TestCompareSchedulers:
    def test_all_requested_schedulers_present(self):
        results = compare_schedulers(
            workload="80%_small",
            profile="all-equal",
            seed=2,
            schedulers=("random", "round-robin"),
            iterations=1,
        )
        assert set(results) == {"random", "round-robin"}

    def test_identical_workload_across_schedulers(self):
        results = compare_schedulers(
            workload="all_small_strict",
            profile="all-equal",
            seed=2,
            schedulers=("random", "round-robin"),
            iterations=1,
        )
        jobs = {name: runs[0].jobs_completed for name, runs in results.items()}
        assert set(jobs.values()) == {120}


class TestEngineConfigValidation:
    def test_message_loss_bounds(self):
        with pytest.raises(ValueError):
            EngineConfig(message_loss=-0.1)
        with pytest.raises(ValueError):
            EngineConfig(message_loss=1.0)

    def test_max_sim_time_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(max_sim_time=0.0)

    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.message_loss == 0.0
        assert config.prefetch is False
        assert config.shared_origin_mbps is None


class TestCLIPaths:
    def test_parsing_leaves_nothing_for_the_cycle_collector(self):
        """``main`` parses with one parser per process: an argparse
        parser is a reference cycle, so one built per call left ~900
        objects a call for the cycle collector.  Each command's flags
        join that parser the first time the command is parsed, and stay."""
        import gc

        from repro.cli import COMMANDS, _build_parser

        for name in COMMANDS:  # the process's parser and every command's flags, kept for good
            _build_parser().parse_args([name])
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                for name in COMMANDS:
                    _build_parser().parse_args([name])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_report_subcommand_delegates(self, monkeypatch, capsys, tmp_path):
        import repro.experiments.html_report as html_report
        from repro.cli import main

        written = {}

        def fake_generate(out, parallel=None):
            written["out"] = out
            path = tmp_path / "r.html"
            path.write_text("<html></html>")
            return path

        monkeypatch.setattr(html_report, "generate", fake_generate)
        assert main(["report", "--out", str(tmp_path / "r.html")]) == 0
        assert "report written to" in capsys.readouterr().out
        assert written["out"] == str(tmp_path / "r.html")

    @pytest.mark.parametrize(
        "command,module",
        [
            ("fig2", "fig2_spark"),
            ("fig3", "fig3_aggregates"),
            ("fig4", "fig4_breakdown"),
            ("ablations", "ablations"),
            ("sensitivity", "sensitivity"),
        ],
    )
    def test_parallel_reaches_the_grid(self, monkeypatch, command, module):
        import importlib

        from repro.cli import main

        calls = []
        driver = importlib.import_module(f"repro.experiments.{module}")
        monkeypatch.setattr(driver, "main", lambda **options: calls.append(options))
        assert main([command, "--parallel", "3"]) == 0
        assert calls == [{"parallel": 3}]

    def test_all_forwards_parallel_to_every_grid_command(self, monkeypatch, capsys):
        import importlib

        from repro.cli import COMMANDS, Experiment, main

        calls = {}
        for name, command in COMMANDS.items():
            if not isinstance(command.handler, Experiment):
                continue
            driver = importlib.import_module(f"repro.experiments.{command.handler.module}")
            monkeypatch.setattr(
                driver, "main", lambda name=name, **options: calls.setdefault(name, options)
            )
        assert main(["all", "--parallel", "3"]) == 0
        assert calls == {
            "fig2": {"parallel": 3},
            "fig3": {"parallel": 3},
            "fig4": {"parallel": 3},
            "tables": {},
            "ablations": {"parallel": 3},
            "sensitivity": {"parallel": 3},
        }
        assert "TABLES 1-3" in capsys.readouterr().out

    def test_report_forwards_parallel(self, monkeypatch, tmp_path):
        import repro.experiments.html_report as html_report
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            html_report, "generate", lambda out, parallel=None: calls.append(parallel) or out
        )
        assert main(["report", "--out", str(tmp_path / "r.html"), "--parallel", "3"]) == 0
        assert calls == [3]

    @pytest.mark.parametrize("command", ["tables", "faults"])
    def test_gridless_commands_take_no_parallel(self, command):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([command, "--parallel", "3"])

    def test_cli_imports_no_experiment_driver(self):
        """Neither ``import repro.cli`` nor ``repro --help`` loads an
        experiment driver, numpy or the simulator: a command's flags and
        handler import what they need when that command is parsed."""
        import subprocess
        import sys

        from repro.cli import COMMANDS, Experiment

        heavy = ["numpy", "repro.sim", "repro.engine", "repro.host"] + [
            f"repro.experiments.{command.handler.module}"
            for command in COMMANDS.values()
            if isinstance(command.handler, Experiment)
        ]
        for run in ("pass", "repro.cli.main(['--help'])"):
            code = (
                "import contextlib, io, sys, repro.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
                f"    {run}\n"
                f"print([m for m in {heavy!r} if m in sys.modules])\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
            assert out.strip() == "[]", run

    def test_run_save_csv(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.report_io import load_csv

        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "run",
                "--scheduler",
                "round-robin",
                "--workload",
                "80%_small",
                "--seed",
                "2",
                "--iterations",
                "1",
                "--save-csv",
                str(csv_path),
            ]
        )
        assert code == 0
        loaded = load_csv(csv_path)
        assert len(loaded) == 1
        assert loaded[0].scheduler == "round-robin"

    def test_cold_flag_prevents_cache_carryover(self, capsys):
        from repro.cli import main

        main(
            [
                "run",
                "--scheduler",
                "bidding",
                "--workload",
                "all_small_strict",
                "--seed",
                "2",
                "--iterations",
                "2",
                "--cold",
            ]
        )
        out = capsys.readouterr().out
        assert "caches cold" in out
        # Both iterations show full misses in the table (120 each).
        miss_columns = [
            line.split()[2] for line in out.splitlines() if line.startswith(("0 ", "1 "))
        ]
        assert miss_columns == ["120", "120"]


class TestExecCLI:
    def test_diff_subcommand_writes_report_and_agrees(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "divergence.json"
        code = main(
            [
                "exec",
                "--diff",
                "--schedulers",
                "baseline",
                "--jobs",
                "6",
                "--time-scale",
                "0.002",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "backends agree" in printed
        assert "baseline" in printed
        import json

        assert json.loads(out.read_text())["ok"] is True

    def test_single_replay_prints_pool_summary(self, capsys):
        from repro.cli import main

        code = main(
            ["exec", "--schedulers", "baseline", "--jobs", "6", "--time-scale", "0.002"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "6/6 jobs" in printed
        assert "handoff p50" in printed

    def test_malformed_kill_flag_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="WORKER:AFTER"):
            main(["exec", "--schedulers", "baseline", "--kill", "nope"])


class TestGoldenCLI:
    def test_check_passes_on_committed_fixtures(self, capsys):
        from repro.cli import main

        assert main(["golden", "--check", "reconfig"]) == 0
        assert "pin 'reconfig'" in capsys.readouterr().out

    def test_unknown_fixture_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown golden fixture"):
            main(["golden", "nope"])


class TestServeRealBackendCLI:
    def test_serve_executes_on_the_real_pool(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--backend",
                "real",
                "--scheduler",
                "baseline",
                "--rate",
                "1",
                "--duration",
                "5",
                "--seed",
                "3",
                "--time-scale",
                "0.005",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "plan captured" in printed
        assert "real pool" in printed
        assert "remain simulated" in printed
