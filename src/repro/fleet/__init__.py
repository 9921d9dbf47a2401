"""Struct-of-arrays fleet state: the one view schedulers decide over.

See :mod:`repro.fleet.soa` for the design (the planes are the state;
the workers' own counters and caches feed them at the seams);
ARCHITECTURE.md §12 for the layout, mutation seams, and the
tie-break/bit-identity rules every consumer must follow.
"""

from repro.fleet.soa import (
    BidPlanes,
    BitMatrix,
    FleetState,
    HolderMatrix,
    HoldingsIndex,
    JobAgeTable,
    LoadTable,
    LocalityQueue,
    argmax_value_rank,
    argmin_value_rank,
    name_ranks,
)

__all__ = [
    "name_ranks",
    "argmin_value_rank",
    "argmax_value_rank",
    "BitMatrix",
    "FleetState",
    "BidPlanes",
    "LoadTable",
    "HolderMatrix",
    "JobAgeTable",
    "HoldingsIndex",
    "LocalityQueue",
]
