"""Job placement strategies: which cluster nodes each job's ranks occupy."""
from repro.placement.strategies import (
    JobRequest,
    PlacementResult,
    packed_placement,
    random_placement,
    round_robin_placement,
    strided_placement,
    locality_placement,
    fragmented_placement,
    random_interleaved_placement,
    place_jobs,
    filter_strategy_kwargs,
    PLACEMENT_STRATEGIES,
)

__all__ = [
    "JobRequest",
    "PlacementResult",
    "packed_placement",
    "random_placement",
    "round_robin_placement",
    "strided_placement",
    "locality_placement",
    "fragmented_placement",
    "random_interleaved_placement",
    "place_jobs",
    "filter_strategy_kwargs",
    "PLACEMENT_STRATEGIES",
]
