"""Job placement strategies (the paper's §3.2 and Fig. 13 case study).

A *placement* assigns the ranks of each job to nodes of a shared cluster.
The paper contrasts two strategies on an oversubscribed fat tree:

* **Packed allocation** — nodes are assigned sequentially per job, keeping
  each job's communication local to as few ToR switches as possible,
* **Random allocation** — nodes are assigned without locality, spreading
  every job across the cluster and loading the oversubscribed core.

Additional strategies (round-robin across ToRs, strided,
:func:`fragmented_placement` — deliberate anti-locality for interference
studies — and :func:`random_interleaved_placement`) are provided for
ablations, and :func:`locality_placement` generalises packed allocation to
any topology: it packs each job into whole switch-attachment groups (ToRs on
a fat tree, routers on a dragonfly/torus/Slim Fly) using
:meth:`repro.network.topology.base.Topology.host_groups`, so intra-job
traffic stays on as few first-hop switches as possible regardless of the
interconnect.  :func:`place_jobs` picks a strategy by name.
:class:`JobRequest` is the one job record (``repro.cluster.ClusterJob`` is the
same class): a strategy reads only its ``num_nodes`` and ``label``, and
:func:`repro.cluster.build_cotenant_schedule` delays each placed job to its
``arrival_ns`` and merges them into one GOAL program.
"""
from __future__ import annotations

import inspect
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.goal.schedule import GoalSchedule


@dataclass(frozen=True)
class JobRequest:
    """A job: its GOAL schedule (one node per rank), arriving at ``arrival_ns``."""

    schedule: GoalSchedule
    _: KW_ONLY
    arrival_ns: int = 0
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrival_ns < 0:
            raise ValueError(f"arrival_ns must be non-negative, got {self.arrival_ns}")

    @property
    def num_nodes(self) -> int:
        return self.schedule.num_ranks

    @property
    def label(self) -> str:
        return self.name or self.schedule.name


@dataclass
class PlacementResult:
    """Outcome of placing several jobs on a cluster.

    Attributes
    ----------
    mappings:
        One ``{job rank -> cluster node}`` dict per job, in job order.
    cluster_nodes:
        Total nodes of the cluster.
    strategy:
        Name of the strategy that produced the placement.
    """

    mappings: List[Dict[int, int]]
    cluster_nodes: int
    strategy: str

    def nodes_of_job(self, job_index: int) -> List[int]:
        """Cluster nodes assigned to ``job_index`` (in job-rank order)."""
        mapping = self.mappings[job_index]
        return [mapping[r] for r in sorted(mapping)]


def _require_capacity(jobs: Sequence[JobRequest], cluster_nodes: int) -> None:
    needed = sum(job.num_nodes for job in jobs)
    if needed > cluster_nodes:
        raise ValueError(f"jobs need {needed} nodes but the cluster only has {cluster_nodes}")


def _deal(order: Sequence[int], jobs: Sequence[JobRequest]) -> List[Dict[int, int]]:
    """Slice ``order`` into consecutive blocks, one per job in job order."""
    mappings: List[Dict[int, int]] = []
    cursor = 0
    for job in jobs:
        mappings.append({r: int(order[cursor + r]) for r in range(job.num_nodes)})
        cursor += job.num_nodes
    return mappings


def packed_placement(jobs: Sequence[JobRequest], cluster_nodes: int) -> PlacementResult:
    """Assign nodes sequentially: job 0 gets nodes 0..n0-1, job 1 the next block, ..."""
    _require_capacity(jobs, cluster_nodes)
    return PlacementResult(_deal(range(cluster_nodes), jobs), cluster_nodes, "packed")


def random_placement(jobs: Sequence[JobRequest], cluster_nodes: int, seed: int = 0) -> PlacementResult:
    """Assign nodes uniformly at random without locality (paper's "Random Allocation")."""
    _require_capacity(jobs, cluster_nodes)
    order = np.random.default_rng(seed).permutation(cluster_nodes)
    return PlacementResult(_deal(order, jobs), cluster_nodes, "random")


def round_robin_placement(
    jobs: Sequence[JobRequest], cluster_nodes: int, nodes_per_tor: int = 16
) -> PlacementResult:
    """Deal nodes to jobs ToR by ToR, interleaving jobs across racks."""
    _require_capacity(jobs, cluster_nodes)
    # visit nodes in an order that cycles across ToRs: node k of ToR 0, ToR 1, ...
    num_tors = (cluster_nodes + nodes_per_tor - 1) // nodes_per_tor
    order: List[int] = []
    for slot in range(nodes_per_tor):
        for tor in range(num_tors):
            node = tor * nodes_per_tor + slot
            if node < cluster_nodes:
                order.append(node)
    return PlacementResult(_deal(order, jobs), cluster_nodes, "round_robin")


def strided_placement(jobs: Sequence[JobRequest], cluster_nodes: int, stride: int = 2) -> PlacementResult:
    """Assign every ``stride``-th node to the first job, interleaving the others."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    _require_capacity(jobs, cluster_nodes)
    order = [n for offset in range(stride) for n in range(offset, cluster_nodes, stride)]
    return PlacementResult(_deal(order, jobs), cluster_nodes, "strided")


def locality_placement(
    jobs: Sequence[JobRequest],
    cluster_nodes: int,
    topology=None,
    group_size: int = 16,
) -> PlacementResult:
    """Pack jobs into whole switch-attachment groups of the topology.

    Parameters
    ----------
    topology:
        A :class:`~repro.network.topology.base.Topology`; its
        :meth:`~repro.network.topology.base.Topology.host_groups` define the
        locality unit (hosts sharing a ToR, torus router or Slim Fly
        router).  When omitted, contiguous blocks of ``group_size`` hosts
        are used instead.
    group_size:
        Fallback group width when no topology is given.

    Each job is placed into the first single group with enough free slots;
    jobs larger than any group spill over the fewest consecutive groups
    that can hold them.  On a fat tree this reduces to packed allocation;
    on a torus or Slim Fly it keeps every job on as few routers as the
    concentration allows.
    """
    _require_capacity(jobs, cluster_nodes)
    free: List[List[int]] = _build_groups(cluster_nodes, topology, group_size)
    mappings: List[Dict[int, int]] = []
    for job in jobs:
        nodes: List[int] = []
        # first single group that can hold the whole job
        target = next((g for g in free if len(g) >= job.num_nodes), None)
        if target is not None:
            nodes = target[: job.num_nodes]
            del target[: job.num_nodes]
        else:
            # spill over the fewest consecutive groups that can hold the job
            # (earliest such window on ties)
            best: Optional[Tuple[int, int]] = None  # (start, end) exclusive
            for start in range(len(free)):
                total = 0
                for end in range(start, len(free)):
                    total += len(free[end])
                    if total >= job.num_nodes:
                        if best is None or (end + 1 - start) < (best[1] - best[0]):
                            best = (start, end + 1)
                        break
            if best is None:
                raise ValueError(
                    f"job {job.label!r} needs {job.num_nodes} nodes but only "
                    f"{sum(len(g) for g in free)} remain free"
                )
            remaining = job.num_nodes
            for g in free[best[0] : best[1]]:
                take = min(remaining, len(g))
                nodes.extend(g[:take])
                del g[:take]
                remaining -= take
        mappings.append({r: nodes[r] for r in range(job.num_nodes)})
    return PlacementResult(mappings, cluster_nodes, "locality")


def _build_groups(cluster_nodes: int, topology, group_size: int) -> List[List[int]]:
    """Host groups from the topology, or contiguous ``group_size`` blocks."""
    if topology is not None:
        if topology.num_hosts != cluster_nodes:
            raise ValueError(
                f"topology has {topology.num_hosts} hosts but cluster_nodes is {cluster_nodes}"
            )
        return [list(g) for g in topology.host_groups()]
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    return [
        list(range(start, min(start + group_size, cluster_nodes)))
        for start in range(0, cluster_nodes, group_size)
    ]


def fragmented_placement(
    jobs: Sequence[JobRequest],
    cluster_nodes: int,
    topology=None,
    group_size: int = 16,
) -> PlacementResult:
    """Deliberate anti-locality: scatter each job across as many groups as possible.

    The dual of :func:`locality_placement` — every job's ranks are dealt one
    node per switch-attachment group, cycling over all groups, so intra-job
    traffic crosses first-hop switches (and the oversubscribed core, on a fat
    tree) as much as the cluster shape allows.  Deterministic, which makes it
    the clean "worst-case placement" arm of interference sweeps.
    """
    _require_capacity(jobs, cluster_nodes)
    free = _build_groups(cluster_nodes, topology, group_size)
    mappings: List[Dict[int, int]] = []
    for job in jobs:
        nodes: List[int] = []
        cursor = 0
        while len(nodes) < job.num_nodes:
            group = free[cursor % len(free)]
            if group:
                nodes.append(group.pop(0))
            cursor += 1
            if len(nodes) < job.num_nodes and not any(free):
                raise ValueError(
                    f"job {job.label!r} needs {job.num_nodes} nodes but the cluster ran out"
                )
        mappings.append({r: nodes[r] for r in range(job.num_nodes)})
    return PlacementResult(mappings, cluster_nodes, "fragmented")


def random_interleaved_placement(
    jobs: Sequence[JobRequest], cluster_nodes: int, seed: int = 0
) -> PlacementResult:
    """Shuffle the cluster and deal nodes to jobs round-robin.

    Unlike :func:`random_placement` (each job draws a contiguous slice of one
    permutation), the shuffled nodes are dealt to the jobs one at a time, so
    the jobs are interleaved through the whole permutation — every job is
    spread across the entire cluster and through every other job's nodes.
    """
    _require_capacity(jobs, cluster_nodes)
    rng = np.random.default_rng(seed)
    order = [int(n) for n in rng.permutation(cluster_nodes)]
    assigned: List[List[int]] = [[] for _ in jobs]
    cursor = 0
    while any(len(nodes) < job.num_nodes for nodes, job in zip(assigned, jobs)):
        for idx, job in enumerate(jobs):
            if len(assigned[idx]) < job.num_nodes:
                assigned[idx].append(order[cursor])
                cursor += 1
    mappings = [
        {r: nodes[r] for r in range(job.num_nodes)}
        for nodes, job in zip(assigned, jobs)
    ]
    return PlacementResult(mappings, cluster_nodes, "random_interleaved")


PLACEMENT_STRATEGIES: Dict[str, Callable[..., PlacementResult]] = {
    "packed": packed_placement,
    "random": random_placement,
    "round_robin": round_robin_placement,
    "strided": strided_placement,
    "locality": locality_placement,
    "fragmented": fragmented_placement,
    "random_interleaved": random_interleaved_placement,
}


def _strategy(name: str) -> Tuple[Callable[..., PlacementResult], List[str]]:
    """The named strategy and the keyword arguments it takes."""
    try:
        fn = PLACEMENT_STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown placement strategy {name!r}") from None
    # every strategy takes (jobs, cluster_nodes, ...) first
    return fn, list(inspect.signature(fn).parameters)[2:]


def place_jobs(
    jobs: Sequence[JobRequest],
    cluster_nodes: int,
    strategy: str = "packed",
    **kwargs,
) -> PlacementResult:
    """Place ``jobs`` using the named strategy (see :data:`PLACEMENT_STRATEGIES`).

    A keyword the strategy does not take is one ``TypeError`` that names the
    strategy, the rejected argument and the accepted ones.
    """
    fn, accepted = _strategy(strategy)
    rejected = [k for k in kwargs if k not in accepted]
    if rejected:
        raise TypeError(
            f"placement strategy {strategy!r} takes no argument "
            f"{', '.join(map(repr, rejected))}; it accepts "
            f"{', '.join(map(repr, accepted)) or 'none'}"
        )
    return fn(jobs, cluster_nodes, **kwargs)


def filter_strategy_kwargs(strategy: str, kwargs: Dict[str, object]) -> Dict[str, object]:
    """Keep only the kwargs the named strategy's signature accepts.

    Grids and CLIs share one kwargs dict across heterogeneous strategies
    (``seed`` for the random ones, ``group_size``/``topology`` for the
    group-aware ones); this gives each strategy its slice.
    """
    _, accepted = _strategy(strategy)
    return {k: v for k, v in kwargs.items() if k in accepted}
