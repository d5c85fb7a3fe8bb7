"""The multi-job co-tenancy engine.

Takes N jobs — each a GOAL schedule plus an arrival time — and turns them
into **one** fabric-shared simulation:

1. every job is delayed to its arrival time
   (:func:`repro.goal.merge.delay_schedule`),
2. the jobs are placed onto the cluster's nodes by one of the
   :data:`repro.placement.PLACEMENT_STRATEGIES` (or explicit, possibly
   overlapping, per-job placements),
3. the placed schedules are merged into a single GOAL program by
   :func:`~repro.goal.merge.concatenate_schedules`, which owns the job
   windows: it moves job *i* into its tag window of
   :data:`~repro.goal.merge.TAG_STRIDE` (and, wherever a node hosts two
   jobs, onto its own compute streams) and refuses a job whose tags or
   streams would leave its window,
4. the merged program is validated once and runs on either backend with
   one op group per job (every op of job *i* is in group *i*): the
   scheduler tracks each group's completion, and the backends attribute
   every message and its per-link bytes to the group of its send op.  The
   tag windows only keep the jobs' messages apart; they are not the
   attribution key,
5. results are attributed back per job: completion time, runtime
   (completion − arrival), slowdown versus an *isolated* run of the same job
   under the same placement, and the per-link contention breakdown.

The engine composes the existing layers instead of duplicating them, so a
single job with arrival 0 produces a simulation **bit-identical** to the
plain single-job path (``tests/test_cluster_cotenancy.py`` locks this in on
both backends).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.goal.merge import concatenate_schedules, delay_schedule, remap_ranks
from repro.goal.schedule import GoalSchedule
from repro.network.backend import GroupStats, SimulationResult
from repro.network.config import SimulationConfig
from repro.placement import JobRequest, PlacementResult, filter_strategy_kwargs, place_jobs
from repro.scheduler import simulate

#: One job of a co-tenant scenario: a GOAL schedule arriving at a time.  The
#: same record the placement strategies place.
ClusterJob = JobRequest


@dataclass
class CoTenantPlan:
    """A merged multi-job program ready to simulate.

    Attributes
    ----------
    schedule:
        The single fabric-shared GOAL program (arrival delays applied).
    placement:
        Which cluster nodes each job occupies.
    op_groups:
        Per rank, the owning job index of every op (scheduler group ids,
        the attribution key of every result).
    jobs:
        The input jobs, in job (= op group = tag window) order.
    """

    schedule: GoalSchedule
    placement: PlacementResult
    op_groups: List[List[int]]
    jobs: List[ClusterJob]


@dataclass
class JobOutcome:
    """Per-job attribution of one co-tenant simulation."""

    job: int
    name: str
    arrival_ns: int
    nodes: List[int]
    finish_ns: int
    runtime_ns: int
    isolated_runtime_ns: Optional[int] = None
    messages_delivered: int = 0
    bytes_delivered: int = 0

    @property
    def slowdown(self) -> Optional[float]:
        """Co-tenant runtime over isolated runtime (>1 = interference)."""
        if not self.isolated_runtime_ns:
            return None
        return self.runtime_ns / self.isolated_runtime_ns


@dataclass
class CoTenancyResult:
    """Everything one co-tenant run produced, attributed per job."""

    outcomes: List[JobOutcome]
    result: SimulationResult
    plan: CoTenantPlan

    @property
    def strategy(self) -> str:
        return self.plan.placement.strategy

    def outcome(self, name: str) -> JobOutcome:
        """Look up a job's outcome by its label."""
        for out in self.outcomes:
            if out.name == name:
                return out
        raise KeyError(f"no job named {name!r}")

    def contended_links(self) -> Dict[str, Dict[str, int]]:
        """Links carrying traffic of two or more jobs: ``{link: {job: bytes}}``.

        A view of ``result.links.group_bytes`` (a job is its op group).  The
        per-link contention breakdown of the run — on a healthy packed
        placement this is empty or confined to core links, while fragmented
        placements light up shared first-hop switches as well.
        """
        links = self.result.links
        per_link: Dict[str, Dict[str, int]] = {}
        for out in self.outcomes:
            arr = links.group_bytes.get(out.job)
            if arr is None:
                continue
            for link in np.flatnonzero(arr):
                per_link.setdefault(links.names[link], {})[out.name] = int(arr[link])
        return {
            link: jobs for link, jobs in per_link.items() if len(jobs) >= 2
        }


def build_cotenant_schedule(
    jobs: Sequence[ClusterJob],
    cluster_nodes: Optional[int] = None,
    strategy: str = "packed",
    placements: Optional[Sequence[Mapping[int, int]]] = None,
    **strategy_kwargs,
) -> CoTenantPlan:
    """Place and merge ``jobs`` into one co-tenant GOAL program.

    Parameters
    ----------
    jobs:
        The jobs to co-locate; job index = op group = tag window.
    cluster_nodes:
        Cluster size; defaults to the sum of the jobs' rank counts.
    strategy:
        Placement strategy name (see
        :data:`repro.placement.PLACEMENT_STRATEGIES`); ignored when explicit
        ``placements`` are given.
    placements:
        Optional explicit ``{job rank -> cluster node}`` mapping per job.
        Node sets may overlap: jobs sharing a node are fused onto it.
    strategy_kwargs:
        Extra arguments of the placement strategy (``seed``, ``topology``,
        ``group_size``, ...); with ``placements`` any of them is a
        ``TypeError``, since no strategy runs.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("need at least one job")
    if cluster_nodes is None:
        cluster_nodes = sum(job.num_nodes for job in jobs)

    if placements is not None:
        if strategy_kwargs:
            raise TypeError(
                f"explicit placements take no placement-strategy argument "
                f"{', '.join(map(repr, strategy_kwargs))}"
            )
        if len(placements) != len(jobs):
            raise ValueError(
                f"need exactly one placement per job "
                f"({len(placements)} placements for {len(jobs)} jobs)"
            )
        placement = PlacementResult(
            [dict(m) for m in placements], cluster_nodes, "explicit"
        )
    else:
        placement = place_jobs(jobs, cluster_nodes, strategy=strategy, **strategy_kwargs)

    delayed = [delay_schedule(job.schedule, job.arrival_ns) for job in jobs]
    merged = concatenate_schedules(
        delayed, placements=placement.mappings, num_ranks=cluster_nodes
    )
    # each job's fragment is appended to its nodes in job order
    op_groups: List[List[int]] = [[] for _ in range(cluster_nodes)]
    for job_idx, (sched, mapping) in enumerate(zip(delayed, placement.mappings)):
        for rank in sched.ranks:
            op_groups[mapping[rank.rank]].extend([job_idx] * len(rank))
    return CoTenantPlan(
        schedule=merged, placement=placement, op_groups=op_groups, jobs=jobs
    )


def _isolated_runtime(
    job: ClusterJob,
    mapping: Mapping[int, int],
    cluster_nodes: int,
    backend: str,
    config: SimulationConfig,
) -> int:
    """Runtime of ``job`` alone on the cluster, under its co-tenant placement.

    The job keeps its exact node positions (so topology locality is held
    constant and the slowdown isolates *contention*), but runs with no other
    job on the fabric and no arrival delay.
    """
    alone = remap_ranks(job.schedule, dict(mapping), num_ranks=cluster_nodes)
    result = simulate(alone, backend=backend, config=config, validate=False)
    return result.finish_time_ns


def run_cotenant(
    jobs: Sequence[ClusterJob],
    cluster_nodes: Optional[int] = None,
    strategy: str = "packed",
    backend: str = "htsim",
    config: Optional[SimulationConfig] = None,
    baseline: bool = True,
    placements: Optional[Sequence[Mapping[int, int]]] = None,
    fault_free_baseline: bool = False,
    **strategy_kwargs,
) -> CoTenancyResult:
    """Simulate ``jobs`` sharing one fabric and attribute the results per job.

    Parameters
    ----------
    jobs, cluster_nodes, strategy, placements, strategy_kwargs:
        See :func:`build_cotenant_schedule`.
    backend:
        ``"htsim"`` (packet-level; per-link contention includes queues, ECN
        and drops) or ``"lgs"`` (message-level).
    config:
        Base :class:`SimulationConfig`.  A non-empty
        ``config.faults`` schedule degrades the shared fabric for the
        co-tenant run and — by default — the isolated baselines too, so
        :attr:`JobOutcome.slowdown` isolates *contention on the degraded
        fabric* (see ``fault_free_baseline`` to attribute faults instead).
    baseline:
        Also simulate each job *alone* under the same placement and report
        per-job slowdown.  Costs one extra simulation per job; disable for
        large sweeps that only need co-tenant numbers.
    fault_free_baseline:
        Run the isolated baselines on a *healthy* fabric
        (``config.faults`` stripped) while the co-tenant run keeps the
        fault schedule.  Per-job slowdown then attributes the combined
        fault + contention degradation each tenant experiences.

    The merged schedule is validated once, before the co-tenant run.

    Group-aware strategies (``locality``, ``fragmented``) default their
    groups to the *simulated* topology's host groups (the config's fat-tree
    ToRs, torus routers, ...), so placement locality matches the fabric
    being simulated; pass ``topology=`` or ``group_size=`` to override.
    """
    cfg = config if config is not None else SimulationConfig()
    if (
        placements is None
        and "topology" not in strategy_kwargs
        and "group_size" not in strategy_kwargs
        and "topology" in filter_strategy_kwargs(strategy, {"topology": None})
    ):
        from repro.network.topology import build_topology

        resolved = (
            cluster_nodes if cluster_nodes is not None else sum(job.num_nodes for job in jobs)
        )
        strategy_kwargs["topology"] = build_topology(cfg, resolved)

    plan = build_cotenant_schedule(
        jobs,
        cluster_nodes=cluster_nodes,
        strategy=strategy,
        placements=placements,
        **strategy_kwargs,
    )
    result = simulate(plan.schedule, backend=backend, config=cfg, op_groups=plan.op_groups)

    # attribution keys by job label; disambiguate duplicates (two jobs built
    # from the same spec/schedule name) so per-link shares never collapse
    labels = [job.label for job in plan.jobs]
    if len(set(labels)) != len(labels):
        labels = [f"{label}#{idx}" for idx, label in enumerate(labels)]

    baseline_cfg = cfg
    if fault_free_baseline and cfg.faults:
        from repro.network.faults import FaultSchedule

        baseline_cfg = cfg.replace(faults=FaultSchedule())

    outcomes: List[JobOutcome] = []
    for job_idx, job in enumerate(plan.jobs):
        nodes = plan.placement.nodes_of_job(job_idx)
        # a degenerate job with no ops never completes anything: treat it as
        # finishing on arrival rather than reporting a negative runtime
        stats = result.groups.get(job_idx, GroupStats(job_idx, finish_ns=job.arrival_ns))
        finish = stats.finish_ns
        isolated = (
            _isolated_runtime(
                job, plan.placement.mappings[job_idx], plan.placement.cluster_nodes,
                backend, baseline_cfg,
            )
            if baseline
            else None
        )
        outcomes.append(
            JobOutcome(
                job=job_idx,
                name=labels[job_idx],
                arrival_ns=job.arrival_ns,
                nodes=nodes,
                finish_ns=finish,
                runtime_ns=finish - job.arrival_ns,
                isolated_runtime_ns=isolated,
                messages_delivered=stats.messages_delivered,
                bytes_delivered=stats.bytes_delivered,
            )
        )
    return CoTenancyResult(outcomes=outcomes, result=result, plan=plan)
