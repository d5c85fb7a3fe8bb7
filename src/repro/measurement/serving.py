"""Serving-latency metrics: per-request SLO percentiles and goodput.

Translates a simulated inference run — an :class:`~repro.apps.inference.
InferencePlan` plus the :class:`~repro.network.backend.SimulationResult` it
produced — into the metrics an inference operator actually watches:

* **TTFT** (time to first token): first-token group finish minus the
  request's open-loop arrival time,
* **TPOT** (time per output token): mean inter-token gap over the decode
  phase, ``(completion - first_token) / (tokens - 1)`` for multi-token
  requests,
* **SLO percentiles** — p50/p99/p999 of both, computed with *nearest-rank*
  semantics (rank ``ceil(p/100 * n)``, 1-indexed) so small-sample behaviour
  is exact and pinned by unit tests rather than interpolation-dependent,
* **goodput** — requests per simulated second that met *all* their SLO
  deadlines; requests that miss a deadline still consume fabric and compute
  but do not count, which is what makes goodput saturate (and then fall)
  past the capacity knee while raw throughput keeps climbing.

The per-request timings come from the scheduler's op-group machinery
(the ``finish_ns`` of ``SimulationResult.groups``): request ``i`` owns group
``2i`` (first-token recv at its frontend) and ``2i + 1`` (last-token recv).
Single-token requests emit only the first group; completion falls back to
the first-token time.
"""
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.inference import InferencePlan, Request
from repro.network.backend import SimulationResult

__all__ = [
    "SloSpec",
    "RequestOutcome",
    "ServingMetrics",
    "percentile_nearest_rank",
    "compute_serving_metrics",
]


def percentile_nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 * n)``-th smallest sample.

    This is the classic operational definition (every reported value is an
    actual observation, never an interpolation), which keeps tail metrics
    honest at the small sample sizes a simulated sweep produces.  Raises
    :class:`ValueError` on an empty sample set — a percentile of nothing is
    a bug upstream, not a zero.
    """
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    if len(samples) == 0:
        raise ValueError("cannot take a percentile of zero samples")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))  # 1-indexed
    return ordered[rank - 1]


@dataclass(frozen=True)
class SloSpec:
    """Per-request latency deadlines; ``None`` disables that check.

    ``ttft_ns`` bounds time-to-first-token, ``tpot_ns`` bounds the mean
    per-output-token latency.  A request is *good* iff it meets every
    enabled deadline.
    """

    ttft_ns: Optional[int] = 2_000_000_000
    tpot_ns: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("ttft_ns", "tpot_ns"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"SloSpec.{name} must be positive, got {value}")


@dataclass(frozen=True)
class RequestOutcome:
    """One request's simulated timings and SLO verdict."""

    request: Request
    first_token_ns: int
    completion_ns: int
    ttft_ns: int
    tpot_ns: float
    slo_met: bool


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregated serving metrics for one simulated inference cell."""

    outcomes: List[RequestOutcome]
    ttft_percentiles_ns: Dict[str, float]
    tpot_percentiles_ns: Dict[str, float]
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    good_requests: int
    batch_occupancy: Dict[str, float] = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        return len(self.outcomes)


_PCTS = {"p50": 50.0, "p99": 99.0, "p999": 99.9}


def _percentile_table(samples: Sequence[float]) -> Dict[str, float]:
    return {name: percentile_nearest_rank(samples, pct) for name, pct in _PCTS.items()}


def compute_serving_metrics(
    plan: InferencePlan,
    result: SimulationResult,
    slo: Optional[SloSpec] = None,
) -> ServingMetrics:
    """Fold a simulation's group finish times into serving metrics.

    ``result`` must come from a ``simulate(..., op_groups=plan.op_groups)``
    call on ``plan.schedule``; the request groups are matched by id.
    """
    if slo is None:
        slo = SloSpec()
    groups = result.groups
    outcomes: List[RequestOutcome] = []
    for req in plan.requests:
        if req.first_token_group not in groups:
            raise ValueError(
                f"request {req.id}: first-token group {req.first_token_group} "
                "missing from the result's groups — was the simulation run "
                "with op_groups=plan.op_groups?"
            )
        first = groups[req.first_token_group].finish_ns
        last = groups.get(req.completion_group)
        completion = first if last is None else last.finish_ns
        ttft = first - req.arrival_ns
        if req.decode_tokens > 1:
            tpot = (completion - first) / (req.decode_tokens - 1)
        else:
            tpot = 0.0
        good = True
        if slo.ttft_ns is not None and ttft > slo.ttft_ns:
            good = False
        if slo.tpot_ns is not None and tpot > slo.tpot_ns:
            good = False
        outcomes.append(
            RequestOutcome(
                request=req,
                first_token_ns=first,
                completion_ns=completion,
                ttft_ns=ttft,
                tpot_ns=tpot,
                slo_met=good,
            )
        )

    ttfts = [o.ttft_ns for o in outcomes]
    tpots = [o.tpot_ns for o in outcomes]
    horizon_s = result.finish_time_ns / 1e9 if result.finish_time_ns > 0 else 0.0
    good_requests = sum(1 for o in outcomes if o.slo_met)
    throughput = len(outcomes) / horizon_s if horizon_s > 0 else 0.0
    goodput = good_requests / horizon_s if horizon_s > 0 else 0.0
    return ServingMetrics(
        outcomes=outcomes,
        ttft_percentiles_ns=_percentile_table(ttfts) if ttfts else {},
        tpot_percentiles_ns=_percentile_table(tpots) if tpots else {},
        offered_rps=plan.offered_rps,
        throughput_rps=throughput,
        goodput_rps=goodput,
        good_requests=good_requests,
        batch_occupancy=plan.batch_occupancy(),
    )
