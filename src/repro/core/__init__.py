"""The bidder's estimation models (Section 5, Listing 2).

* :mod:`repro.core.learning`  -- worker speed models: nominal speeds
  (Section 6.3's preconfigured mode), historic averages (Section 6.4's
  measured mode) and an EWMA extension (future work),
* :mod:`repro.core.estimator` -- Listing 2's cost estimation:
  ``committed workload + data transfer + processing``,
* :mod:`repro.core.adaptive`  -- the bid corrector that learns each
  worker's estimate-vs-actual ratio.

The protocol that uses them -- Listing 1's contests and the bidding
master/worker pair -- is a scheduler like the others, in
:mod:`repro.schedulers.bidding` and :mod:`repro.schedulers.contest`.
Nothing here imports the schedulers or the engine.
"""

from repro.core.estimator import CostEstimate, CostEstimator
from repro.core.learning import (
    EWMASpeedModel,
    HistoricAverageSpeedModel,
    NominalSpeedModel,
    SpeedModel,
)

__all__ = [
    "CostEstimate",
    "CostEstimator",
    "EWMASpeedModel",
    "HistoricAverageSpeedModel",
    "NominalSpeedModel",
    "SpeedModel",
]
