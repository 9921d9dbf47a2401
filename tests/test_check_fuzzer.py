"""The scenario fuzzer (``repro.fuzz.fuzzer``): generation, shrinking,
self-validation against the planted bugs, and regression seeds.

The regression seeds at the bottom each encode a real engine bug this
fuzzer found during development (stale subscriptions after a crash,
pull-loop stalls under message loss, a fleet-wipe race in the injector,
offers lost with their crashed offeree).  They must stay clean forever.
"""

import json

import pytest

from repro.fuzz.fuzzer import (
    PLANTS,
    Scenario,
    fuzz,
    generate_scenario,
    run_scenario,
    shrink,
)


class TestGeneration:
    def test_generation_is_deterministic(self):
        assert generate_scenario(42) == generate_scenario(42)
        assert generate_scenario(42) != generate_scenario(43)

    def test_generated_scenarios_are_wellformed(self):
        for seed in range(30):
            scenario = generate_scenario(seed)
            assert 2 <= len(scenario.workers) <= 6
            assert 1 <= len(scenario.jobs) <= 24
            if scenario.faults is not None:
                # Liveness: generated fault plans always allow recovery.
                assert scenario.faults.recovery is not None

    def test_planted_generation_forces_the_bug(self):
        double = generate_scenario(7, planted="double-allocate")
        assert double.scheduler == "planted:double-allocate"
        pipe = generate_scenario(7, planted="overdelivery")
        assert pipe.planted_pipe
        migrator = generate_scenario(7, planted="buggy-migrator")
        assert migrator.planted_migrator
        assert migrator.reconfig is not None and migrator.reconfig.migrations
        with pytest.raises(ValueError):
            generate_scenario(7, planted="no-such-plant")

    def test_reconfig_generation_is_deterministic_and_optional(self):
        assert generate_scenario(42, reconfig=True) == generate_scenario(
            42, reconfig=True
        )
        # Without the flag (or the migrator plant), no reconfig is drawn.
        assert generate_scenario(42).reconfig is None
        # With it, some seeds carry migrations and some carry swaps.
        plans = [
            generate_scenario(seed, reconfig=True).reconfig for seed in range(30)
        ]
        assert any(plan is not None and plan.migrations for plan in plans)
        assert any(plan is not None and plan.swaps for plan in plans)


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        for seed in (0, 3, 11):
            scenario = generate_scenario(seed)
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_json_round_trip_preserves_reconfig(self):
        for seed in (0, 3, 11):
            scenario = generate_scenario(seed, reconfig=True)
            assert Scenario.from_json(scenario.to_json()) == scenario
        planted = generate_scenario(0, planted="buggy-migrator")
        restored = Scenario.from_json(planted.to_json())
        assert restored == planted
        assert restored.planted_migrator

    def test_json_file_round_trip(self, tmp_path):
        scenario = generate_scenario(5)
        path = tmp_path / "scenario.json"
        scenario.to_json(str(path))
        assert Scenario.from_json(f"@{path}") == scenario

    def test_json_is_plain_data(self):
        payload = json.loads(generate_scenario(5).to_json())
        assert payload["seed"] == 5
        assert isinstance(payload["workers"], list)
        assert isinstance(payload["jobs"], list)


class TestReplayDeterminism:
    def test_same_scenario_same_outcome(self):
        # A faulted scenario replayed twice: identical classification.
        scenario = generate_scenario(3409)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.signature == second.signature
        assert first.message == second.message


class TestPlantedSelfValidation:
    def test_plants_registry(self):
        assert set(PLANTS) == {"double-allocate", "overdelivery", "buggy-migrator"}

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_planted_bug_is_found_and_shrunk_small(self, plant):
        report = fuzz(budget_s=60.0, seed=0, planted=plant, max_scenarios=25)
        assert report.failures, f"planted {plant} escaped the fuzzer"
        failure = report.failures[0]
        kind, _ = failure.signature
        assert kind == "InvariantViolation"
        # The acceptance bar: minimal deterministic reproducers.
        assert len(failure.shrunk.jobs) <= 4
        assert len(failure.shrunk.workers) <= 3
        # And the shrunk scenario still fails the same way, twice.
        assert run_scenario(failure.shrunk).signature == failure.signature
        assert run_scenario(failure.shrunk).signature == failure.signature

    def test_shrink_preserves_the_signature(self):
        scenario = generate_scenario(0, planted="double-allocate")
        original = run_scenario(scenario)
        assert original.signature is not None
        shrunk = shrink(scenario)
        assert run_scenario(shrunk).signature == original.signature
        assert len(shrunk.jobs) <= len(scenario.jobs)
        assert len(shrunk.workers) <= len(scenario.workers)


class TestRegressionSeeds:
    # Each seed reproduced a distinct engine bug when first drawn; the
    # fixes live in the modules named below.  All must now run clean.
    SEEDS = {
        315: "bidding: stale announce subscription after a crash (schedulers/bidding)",
        157: "matchmaking: pull loop stalled by message loss (schedulers/matchmaking)",
        1021: "delay: pull loop stalled by message loss (schedulers/delay)",
        21558: "injector fleet-wipe race + empty-fleet redispatch (faults/injector, engine/master)",
        3409: "baseline: offer lost with its crashed offeree (schedulers/baseline)",
    }

    @pytest.mark.parametrize("seed", sorted(SEEDS))
    def test_regression_seed_is_clean(self, seed):
        outcome = run_scenario(generate_scenario(seed))
        assert outcome.signature is None, (
            f"seed {seed} regressed: {self.SEEDS[seed]} -- {outcome.message}"
        )

    #: Reconfig-mode regression seeds: drawn with ``reconfig=True``.
    RECONFIG_SEEDS = {
        1815: "swapped-in pull scheduler wedged by message loss "
        "(fuzzer swap liveness guard)",
    }

    @pytest.mark.parametrize("seed", sorted(RECONFIG_SEEDS))
    def test_reconfig_regression_seed_is_clean(self, seed):
        outcome = run_scenario(generate_scenario(seed, reconfig=True))
        assert outcome.signature is None, (
            f"seed {seed} regressed: {self.RECONFIG_SEEDS[seed]} -- {outcome.message}"
        )


class TestFuzzLoop:
    def test_short_unplanted_fuzz_is_clean(self):
        # A quick smoke pass; the CI fuzz job runs a longer budget.
        report = fuzz(budget_s=5.0, seed=0)
        assert report.scenarios_run > 0
        assert report.ok, [f.signature for f in report.failures]

    def test_max_scenarios_caps_the_loop(self):
        report = fuzz(budget_s=60.0, seed=0, max_scenarios=3)
        assert report.scenarios_run == 3

    def test_short_reconfig_fuzz_is_clean(self):
        # Migrations and hot-swaps mixed into every scenario; the CI
        # fuzz job runs this mode with a much longer budget.
        report = fuzz(budget_s=5.0, seed=0, reconfig=True)
        assert report.scenarios_run > 0
        assert report.ok, [f.signature for f in report.failures]
