"""Reference measurement harness (the ground-truth substitute).

The paper validates ATLAHS by comparing simulator predictions against
runtimes *measured* on real clusters (Alps and a CSCS test-bed).  Without
that hardware, this package produces the "measured" side of every validation
experiment by executing the same workload on an independent, higher-fidelity
reference configuration of the packet-level simulator with per-run compute
jitter — preserving the structure of the error analysis (see DESIGN.md,
substitution table).
"""
from repro.measurement.convergence import (
    ConvergenceSummary,
    summarize_convergence,
)
from repro.measurement.reference import (
    MeasurementResult,
    measure_reference_runtime,
    non_overlapped_compute_fraction,
    prediction_error,
)
from repro.measurement.serving import (
    RequestOutcome,
    ServingMetrics,
    SloSpec,
    compute_serving_metrics,
    percentile_nearest_rank,
)

__all__ = [
    "ConvergenceSummary",
    "summarize_convergence",
    "MeasurementResult",
    "measure_reference_runtime",
    "non_overlapped_compute_fraction",
    "prediction_error",
    "RequestOutcome",
    "ServingMetrics",
    "SloSpec",
    "compute_serving_metrics",
    "percentile_nearest_rank",
]
