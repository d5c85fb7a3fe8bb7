"""Reference ("measured") runtime generation and error metrics.

:func:`measure_reference_runtime` replays a GOAL schedule on a *reference*
configuration — the packet-level backend with a fully provisioned fat tree,
per-message host overhead, and a small per-run computation-speed jitter — and
averages over ``trials`` runs, mirroring the paper's averaging over repeated
real executions.  The predictions produced by the cheaper configurations
(the LogGOPS backend, or the packet backend under study) are then compared
against this reference via :func:`prediction_error`, the signed relative
error annotated in red in the paper's Figs. 8 and 10.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.goal.ops import _CALC, VALUE_LIMIT
from repro.goal.schedule import GoalSchedule
from repro.network.config import SimulationConfig
from repro.scheduler import simulate


@dataclass
class MeasurementResult:
    """Outcome of the reference measurement of one workload.

    Attributes
    ----------
    runtime_ns:
        Mean simulated makespan over the trials.
    trial_runtimes_ns:
        Per-trial makespans.
    compute_fraction:
        Estimate of the non-overlapped computation share (the dark-blue
        portion of the paper's measured bars).
    """

    runtime_ns: float
    trial_runtimes_ns: List[float]
    compute_fraction: float


def non_overlapped_compute_fraction(schedule: GoalSchedule, runtime_ns: float) -> float:
    """Estimate which share of ``runtime_ns`` is pure (non-overlapped) computation.

    The estimate is the mean, over ranks, of the rank's serial computation on
    its busiest compute stream divided by the total runtime, clamped to
    [0, 1].  It is exact when computation never overlaps with communication
    on the same stream and underestimates slightly otherwise, which matches
    how the paper derives the quantity from traces.
    """
    if runtime_ns <= 0:
        return 0.0
    fractions = []
    for rank in schedule.ranks:
        per_stream = {}
        for kind, cpu, size in zip(rank.kind, rank.cpu, rank.size):
            if kind == _CALC:
                per_stream[cpu] = per_stream.get(cpu, 0) + size
        busiest = max(per_stream.values(), default=0)
        fractions.append(min(1.0, busiest / runtime_ns))
    return float(np.mean(fractions)) if fractions else 0.0


def measure_reference_runtime(
    schedule: GoalSchedule,
    base_config: Optional[SimulationConfig] = None,
    trials: int = 3,
    compute_jitter: float = 0.01,
    seed: int = 1234,
    backend: str = "htsim",
) -> MeasurementResult:
    """Produce the "measured" runtime of a workload on the reference setup.

    Parameters
    ----------
    schedule:
        The GOAL workload.
    base_config:
        Reference network configuration; defaults to a fully provisioned fat
        tree with MPRDMA congestion control.
    trials:
        Independent repetitions (each with its own jittered compute speed).
    compute_jitter:
        Standard deviation of the per-trial relative computation-speed jitter.
    seed:
        Seed of the jitter sequence.
    backend:
        Reference backend (the packet-level backend by default).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    config = base_config or SimulationConfig(topology="fat_tree", oversubscription=1.0)

    runtimes: List[float] = []
    for trial in range(trials):
        factor = float(np.exp(rng.normal(0.0, compute_jitter)))
        jittered = _scale_computation(schedule, factor)
        result = simulate(jittered, backend=backend, config=config.replace(seed=config.seed + trial))
        runtimes.append(float(result.finish_time_ns))

    mean_runtime = float(np.mean(runtimes))
    compute_frac = non_overlapped_compute_fraction(schedule, mean_runtime)
    return MeasurementResult(
        runtime_ns=mean_runtime,
        trial_runtimes_ns=runtimes,
        compute_fraction=compute_frac,
    )


def _scale_computation(schedule: GoalSchedule, factor: float) -> GoalSchedule:
    """Return a new schedule: ``schedule`` with every calc duration scaled by ``factor``."""
    scaled = GoalSchedule(schedule.num_ranks, name=schedule.name)
    for rank in schedule.ranks:
        kind, size, peer, tag, cpu = rank.columns()
        calc = kind == _CALC
        # (what int(round(size * factor)) gives op by op: float64, half to even)
        stretched = np.rint(size[calc].astype(np.float64) * factor)
        if stretched.size and stretched.max() >= VALUE_LIMIT:
            raise ValueError(f"a calc scaled by {factor} does not fit 64 bits")
        size = size.copy()
        size[calc] = np.maximum(stretched, 0).astype(np.uint64)
        scaled.ranks[rank.rank].extend(kind, size, peer, tag, cpu, *rank.pred_csr())
    return scaled


def prediction_error(predicted_ns: float, measured_ns: float) -> float:
    """Signed relative prediction error (the red percentages of Figs. 8 and 10)."""
    if measured_ns <= 0:
        raise ValueError("measured runtime must be positive")
    return (predicted_ns - measured_ns) / measured_ns
