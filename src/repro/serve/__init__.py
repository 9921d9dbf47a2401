"""The open-loop service layer.

Turns the closed-loop simulator into a long-running job-submission
service: arrival processes (:mod:`repro.serve.arrivals`), admission
control with backpressure (:mod:`repro.serve.admission`), an elastic
worker pool (:mod:`repro.serve.autoscaler`), online SLO tracking
(:mod:`repro.serve.slo`), and the :class:`ServiceRuntime` wiring it all
around the unchanged master/worker engine
(:mod:`repro.serve.service`).
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Decision,
    TokenBucket,
)
from repro.serve.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
    make_arrivals,
)
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.service import ServiceConfig, ServiceRuntime, build_service
from repro.serve.slo import LatencyStats, P2Quantile, ServiceReport, SLOTracker

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionConfig",
    "AdmissionController",
    "ArrivalProcess",
    "Autoscaler",
    "AutoscalerConfig",
    "BurstArrivals",
    "Decision",
    "DiurnalArrivals",
    "LatencyStats",
    "P2Quantile",
    "PoissonArrivals",
    "ServiceConfig",
    "ServiceReport",
    "ServiceRuntime",
    "SLOTracker",
    "TokenBucket",
    "TraceArrivals",
    "build_service",
    "make_arrivals",
]
