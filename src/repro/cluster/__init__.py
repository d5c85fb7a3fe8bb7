"""Multi-job co-tenancy: arrival schedules, shared-fabric simulation, per-job attribution.

:func:`~repro.cluster.engine.run_cotenant` is the main entry point;
``ClusterJob`` (the same class as :class:`repro.placement.JobRequest`)
describes one job (schedule plus arrival time), and
:func:`~repro.cluster.engine.build_cotenant_schedule` exposes the merge step
on its own.  The job tag window ``TAG_STRIDE`` is re-exported from
:mod:`repro.goal.merge`, which owns it.  The interference sweep over placement
strategies and topologies lives in :func:`repro.sweep.interference_sweep`.
"""
from repro.cluster.engine import (
    ClusterJob,
    CoTenancyResult,
    CoTenantPlan,
    JobOutcome,
    build_cotenant_schedule,
    run_cotenant,
)
from repro.goal.merge import TAG_STRIDE

__all__ = [
    "TAG_STRIDE",
    "ClusterJob",
    "CoTenancyResult",
    "CoTenantPlan",
    "JobOutcome",
    "build_cotenant_schedule",
    "run_cotenant",
]
