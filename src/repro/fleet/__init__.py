"""Struct-of-arrays fleet-state mirrors (the scheduling fast path).

See :mod:`repro.fleet.soa` for the design; ARCHITECTURE.md §12 for the
layout, mutation seams, and the tie-break/bit-identity rules every
consumer must follow.  ``REPRO_FLEET_SOA=0`` disables the fast path.
"""

from repro.fleet.soa import (
    SOA_ENV,
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
    soa_enabled,
)

__all__ = [
    "SOA_ENV",
    "soa_enabled",
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
