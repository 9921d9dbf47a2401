"""The unified override pathway: routing and loud rejection of typos.

The 1.x alias shims (``duration``, ``loss``, ...) are gone: only
canonical dataclass field names resolve, and anything else -- including
the retired spellings -- raises ``TypeError`` listing the accepted
keywords.
"""

import pytest

from repro.config import apply_overrides, resolve_overrides
from repro.experiments.runner import CellSpec
from repro.host import EngineConfig
from repro.serve import AdmissionConfig, ServiceConfig

#: The removed 1.x spellings and the canonical field each must name now.
RETIRED_ALIASES = {
    "duration": "duration_s",
    "deadline": "deadline_s",
    "max_inflight": "max_inflight_per_worker",
    "loss": "message_loss",
    "max_time": "max_sim_time",
}


class TestResolveOverrides:
    def test_routes_by_first_declaring_target(self):
        service_kw, admission_kw, engine_kw = resolve_overrides(
            {"duration_s": 60.0, "queue_cap": 8, "message_loss": 0.1},
            ServiceConfig,
            AdmissionConfig,
            EngineConfig,
        )
        assert service_kw == {"duration_s": 60.0}
        assert admission_kw == {"queue_cap": 8}
        assert engine_kw == {"message_loss": 0.1}

    @pytest.mark.parametrize("alias,canonical", sorted(RETIRED_ALIASES.items()))
    def test_retired_aliases_are_rejected(self, alias, canonical):
        with pytest.raises(TypeError, match=alias):
            resolve_overrides(
                {alias: 7}, ServiceConfig, AdmissionConfig, EngineConfig
            )

    @pytest.mark.parametrize("canonical", sorted(RETIRED_ALIASES.values()))
    def test_canonical_spellings_resolve_warning_free(self, canonical, recwarn):
        buckets = resolve_overrides(
            {canonical: 7}, ServiceConfig, AdmissionConfig, EngineConfig
        )
        assert any(bucket == {canonical: 7} for bucket in buckets)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_fault_tolerance_is_rejected(self):
        # Recovery comes with a fault plan (``faults=FaultPlan()``).
        with pytest.raises(TypeError, match="fault_tolerance"):
            resolve_overrides({"fault_tolerance": True}, EngineConfig)

    def test_unknown_key_raises_listing_accepted(self):
        with pytest.raises(TypeError, match="duration_s"):
            resolve_overrides({"durashun": 1.0}, ServiceConfig)

    def test_needs_a_target(self):
        with pytest.raises(TypeError, match="at least one target"):
            resolve_overrides({"seed": 1})


class TestApplyOverrides:
    def test_replaces_fields(self):
        config = apply_overrides(EngineConfig(seed=1), {"message_loss": 0.2})
        assert config.seed == 1
        assert config.message_loss == 0.2

    def test_no_overrides_returns_same_instance(self):
        config = EngineConfig(seed=1)
        assert apply_overrides(config, {}) is config

    def test_retired_alias_rejected(self):
        with pytest.raises(TypeError, match="loss"):
            apply_overrides(EngineConfig(seed=1), {"loss": 0.2})


class TestCellSpecOverrides:
    def test_cellspec_engine_overrides_apply_canonical_names(self):
        spec = CellSpec(
            scheduler="bidding",
            workload="80%_large",
            profile="all-equal",
            seed=5,
            engine_overrides=(("message_loss", 0.05), ("max_sim_time", 99.0)),
        )
        config = spec.engine_config()
        assert config.message_loss == 0.05
        assert config.max_sim_time == 99.0
        assert config.seed == 5

    def test_cellspec_rejects_retired_alias(self):
        spec = CellSpec(
            scheduler="bidding",
            workload="80%_large",
            profile="all-equal",
            seed=5,
            engine_overrides=(("loss", 0.05),),
        )
        with pytest.raises(TypeError, match="loss"):
            spec.engine_config()
