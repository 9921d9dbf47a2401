"""The evaluation matrix and calibration constants (Section 6.3.1).

The paper's controlled evaluation runs *all combinations* of four
worker configurations and five job configurations, three iterations
each, with worker caches persisting across iterations.  This module
pins those dimensions plus every free parameter the paper does not
publish, with the rationale for each choice (DESIGN.md Section 4's
calibration note).
"""

from __future__ import annotations

from repro.host import EngineConfig
from repro.net.topology import TopologyConfig

#: The four worker configurations (Section 6.3.1).
PROFILE_NAMES: tuple[str, ...] = ("all-equal", "one-fast", "one-slow", "fast-slow")

#: The five job configurations (Section 6.3.1), 120 jobs each.
JOB_CONFIG_NAMES: tuple[str, ...] = (
    "all_diff_equal",
    "all_diff_large",
    "all_diff_small",
    "80%_large",
    "80%_small",
)

#: "we ran all combinations of worker and job configurations, in three
#: iterations each" -- caches persist across the iterations.
ITERATIONS = 3

#: Independent replications (the paper reports averages; three seeds per
#: cell keep harness runtime low while averaging out arrival/noise draws).
EVALUATION_SEEDS: tuple[int, ...] = (11, 23, 37)

#: The one seed of the single-seed sweeps (ablations, sensitivity, faults).
DEFAULT_SEED = 11

#: Noise scheme calibration: the paper says only that speeds "were
#: subjected to a noise scheme ... to simulate realistic variations in
#: network conditions".  A log-normal factor with sigma=0.25 gives
#: realised speeds typically within +-25 % of nominal with occasional
#: 2x excursions -- enough to decouple bids from realised times without
#: drowning the speed differences between workers.
NOISE_KIND = "lognormal"
NOISE_SIGMA = 0.25

#: Geo-distribution: same-continent AWS regions, 5-60 ms one-way.
TOPOLOGY = TopologyConfig(min_latency=0.005, max_latency=0.060, broker_processing=0.001)


def default_engine_config(seed: int) -> EngineConfig:
    """The engine configuration used by every paper experiment."""
    return EngineConfig(
        seed=seed,
        noise_kind=NOISE_KIND,
        noise_params={"sigma": NOISE_SIGMA},
        topology=TOPOLOGY,
        trace=False,  # aggregate counters only; experiments are bulk runs
    )


def noise_overrides(sigma: float) -> tuple[tuple[str, object], ...]:
    """``CellSpec.engine_overrides`` for log-normal noise of ``sigma``
    (no noise at all when ``sigma`` is 0)."""
    if sigma > 0:
        return (("noise_kind", "lognormal"), ("noise_params", {"sigma": sigma}))
    return (("noise_kind", "none"), ("noise_params", {}))
