"""The collective algorithm registry and its LogGOPS-cost autotuner.

This module mirrors the routing-strategy registry of
:mod:`repro.network.routing` for collectives: every algorithm the schedule
generators can substitute for a collective is registered as a
:class:`CollectiveAlgorithm` — its emit function, an analytic LogGOPS cost
model, and documentation metadata — under its collective kind
(``allreduce``, ``allgather``, ``reduce_scatter``, ``bcast``, ``barrier``,
``alltoall``).

Three entry points matter to callers:

* :func:`resolve_algorithm` — the one path from an algorithm name (or
  ``"auto"``) to a registered :class:`CollectiveAlgorithm`: the schedule
  generators (``schedgen/mpi.py``, ``schedgen/nccl.py``) and
  :func:`build_collective_schedule` resolve through it, and
  :func:`get_algorithm` / :func:`algorithm_names` name and list the
  registry for :func:`repro.sweep.collective_sweep` and the
  ``atlahs collectives`` CLI,
* :func:`select_algorithm` — the autotuner: evaluates every registered
  algorithm's analytic cost for a (collective, message size, group shape)
  and returns the cheapest, optionally aware of the topology's intra- vs
  inter-group latencies,
* :func:`build_collective_schedule` — emit one standalone collective as a
  :class:`~repro.goal.schedule.GoalSchedule`, the workhorse of sweeps,
  property tests and the documentation examples.

Cost model
----------
Costs are analytic LogGOPS estimates in nanoseconds (see
``docs/collectives.md`` for the per-algorithm formulas).  A communication
round of ``m`` bytes costs ``L + 2o + g + m*G`` where ``L`` is the wire
latency of the round's *scope*: hierarchical algorithms charge
``L_intra`` for intra-group rounds and ``L_inter`` for rounds that cross
group boundaries; flat algorithms always pay the scope of their widest
participant.  With no topology information all three latencies collapse to
the flat LogGOPS ``L`` and hierarchy only helps through round counts and
byte volumes.  The model intentionally ignores reduction compute and
congestion — it ranks algorithms, it does not predict finish times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.collectives import hierarchical as halgs
from repro.collectives import mpi as calgs
from repro.collectives.context import CollectiveContext, DepMap, groups_from_topology

Groups = Optional[List[List[int]]]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CostModel:
    """LogGOPS parameters the autotuner prices algorithms with.

    Attributes
    ----------
    L:
        Flat wire latency in ns (used when a round's scope is unknown).
    o:
        Per-message CPU overhead in ns (charged twice per round: send + recv).
    g:
        Inter-message gap in ns.
    G:
        Gap per byte in ns/byte (inverse bandwidth).
    L_intra / L_inter:
        Wire latency of intra-group and inter-group rounds in ns; both
        default to ``L``.  Populate them from a topology with
        :meth:`from_loggops` to make the autotuner locality-aware.
    uplinks_per_group:
        Boundary capacity of a locality group in host-link units (e.g. 4.0
        on a 4:1-oversubscribed fat-tree ToR).  Inter-group rounds in which
        ``k`` ranks of a group transmit concurrently are slowed by
        ``max(1, k / uplinks_per_group)`` — the oversubscription penalty
        that makes hierarchical algorithms win on tapered fabrics.
        ``None`` disables the penalty.
    """

    L: float = 3700.0
    o: float = 200.0
    g: float = 5.0
    G: float = 0.04
    L_intra: Optional[float] = None
    L_inter: Optional[float] = None
    uplinks_per_group: Optional[float] = None

    @classmethod
    def from_loggops(
        cls,
        params,
        topology=None,
        groups: Groups = None,
        placement: Optional[Dict[int, int]] = None,
    ) -> "CostModel":
        """Build a cost model from :class:`~repro.network.config.LogGOPSParams`.

        When ``topology`` is given, ``L_intra`` / ``L_inter`` are taken
        from the propagation latency of a same-group and a cross-group host
        pair (the topology's path latencies replace the flat ``L``), and
        ``uplinks_per_group`` from the aggregate switch-to-switch bandwidth
        of the largest group's first-hop switch, in units of one host
        link.  The pairs come from ``groups`` (communicator-rank groups)
        mapped to hosts through ``placement`` (``{rank -> host}``, identity
        by default) when groups are given, else from the topology's own
        ``host_groups()``.
        """
        L_intra = L_inter = None
        uplinks = None
        if topology is not None:
            if groups:
                host_of = placement or {}
                host_groups = [
                    [host_of.get(r, r) for r in grp] for grp in groups
                ]
            else:
                host_groups = topology.host_groups()
            intra_pair: Optional[Tuple[int, int]] = None
            inter_pair: Optional[Tuple[int, int]] = None
            for grp in host_groups:
                if len(grp) >= 2 and grp[0] != grp[1] and intra_pair is None:
                    intra_pair = (grp[0], grp[1])
            if len(host_groups) >= 2 and host_groups[0][0] != host_groups[1][0]:
                inter_pair = (host_groups[0][0], host_groups[1][0])
            if intra_pair is not None:
                L_intra = float(topology.min_path_latency(*intra_pair))
            if inter_pair is not None:
                L_inter = float(topology.min_path_latency(*inter_pair))
                largest = max(host_groups, key=len)
                switch = topology.attachment(largest[0])
                host_bw = topology.links[topology.out_links(largest[0])[0]].bandwidth
                boundary_bw = sum(
                    topology.links[l].bandwidth
                    for l in topology.out_links(switch)
                    if not topology.is_host(topology.links[l].dst)
                )
                if host_bw > 0 and boundary_bw > 0:
                    uplinks = boundary_bw / host_bw
        return cls(
            L=float(params.L),
            o=float(params.o),
            g=float(params.g),
            G=float(params.G),
            L_intra=L_intra,
            L_inter=L_inter,
            uplinks_per_group=uplinks,
        )

    def inter_factor(self, concurrent: int) -> float:
        """Slowdown of an inter-group round with ``concurrent`` senders per group."""
        if not self.uplinks_per_group or concurrent <= self.uplinks_per_group:
            return 1.0
        return concurrent / self.uplinks_per_group

    def step(self, nbytes: float, scope: str = "flat", concurrent: int = 1) -> float:
        """Cost in ns of one communication round of ``nbytes`` bytes.

        ``scope`` is ``"flat"``, ``"intra"`` (within a locality group) or
        ``"inter"`` (crossing group boundaries); inter rounds additionally
        pay the oversubscription penalty for ``concurrent`` simultaneous
        senders per group (see :meth:`inter_factor`).
        """
        if scope == "intra":
            latency = self.L_intra if self.L_intra is not None else self.L
            factor = 1.0
        elif scope == "inter":
            latency = self.L_inter if self.L_inter is not None else self.L
            factor = self.inter_factor(concurrent)
        else:
            latency = self.L
            factor = 1.0
        return latency + 2.0 * self.o + self.g + nbytes * self.G * factor


def _group_shape(n: int, groups: Groups) -> Tuple[int, int]:
    """(max group size, group count) of a grouping, or ``(n, 1)`` when flat."""
    if not groups or len(groups) <= 1:
        return n, 1
    return max(len(g) for g in groups), len(groups)


def _intra_reach(groups: Groups) -> int:
    """Largest exchange distance still inside a (contiguous) locality group.

    Distance-``d`` exchanges of the doubling/halving algorithms stay inside
    a group when ``d`` is below the smallest group size; 0 when no usable
    grouping exists (every round prices as inter-group).
    """
    if not groups or len(groups) <= 1:
        return 0
    return min(len(g) for g in groups)


# -- per-algorithm analytic costs (size in bytes, n ranks, m = CostModel) ----
def _cost_ring_allreduce(size: float, n: int, m: CostModel, groups: Groups) -> float:
    # every step's latency is bounded by the boundary pairs; only one pair
    # per group crosses, so no oversubscription penalty
    return 2.0 * (n - 1) * m.step(size / n, "inter")


def _exchange_rounds_cost(
    size_of_round, n: int, m: CostModel, groups: Groups, passes: int = 1
) -> float:
    """Shared cost of distance-doubling exchanges (RD, RHD, Bruck, barrier).

    ``size_of_round(d)`` gives the bytes exchanged at distance ``d``; rounds
    with ``d`` below the group size price as intra-group, the rest as
    inter-group with every group member transmitting concurrently.
    """
    reach = _intra_reach(groups)
    g, _ = _group_shape(n, groups)
    pow2 = 1 << (n.bit_length() - 1) if (n & (n - 1)) else n
    cost, d = 0.0, 1
    while d < pow2:
        nbytes = size_of_round(d)
        if d < reach:
            cost += passes * m.step(nbytes, "intra")
        else:
            cost += passes * m.step(nbytes, "inter", concurrent=g)
        d *= 2
    return cost


def _cost_recursive_doubling(size: float, n: int, m: CostModel, groups: Groups) -> float:
    fold = 0 if (n & (n - 1)) == 0 else 2
    return fold * m.step(size, "inter") + _exchange_rounds_cost(
        lambda d: size, n, m, groups
    )


def _cost_reduce_bcast(size: float, n: int, m: CostModel, groups: Groups) -> float:
    # binomial trees: at most one sender per group crosses in a round
    return 2.0 * math.ceil(math.log2(n)) * m.step(size, "inter")


def _cost_rhd(size: float, n: int, m: CostModel, groups: Groups) -> float:
    pow2 = 1 << (n.bit_length() - 1)
    fold = 0 if pow2 == n else 2
    # halving pass + mirrored doubling pass share the per-distance sizes
    return fold * m.step(size, "inter") + _exchange_rounds_cost(
        lambda d: size * d / pow2, n, m, groups, passes=2
    )


def _cost_bucket(size: float, n: int, m: CostModel, groups: Groups) -> float:
    rows, cols = halgs.grid_shape(n)
    g, _ = _group_shape(n, groups)
    reach = _intra_reach(groups)
    # row rings are contiguous: intra when a row fits into a locality group
    row_scope = "intra" if 1 < cols <= reach else "inter"
    cost = 2.0 * (cols - 1) * m.step(size / cols, row_scope)
    # column rings stride by ``cols``: every member of a group transmits
    cost += 2.0 * (rows - 1) * m.step(size / (cols * rows), "inter", concurrent=min(g, cols))
    return cost


def _cost_hier_rs(size: float, n: int, m: CostModel, groups: Groups) -> float:
    g, num_groups = _group_shape(n, groups)
    if num_groups == 1:
        return float("inf")
    cost = 2.0 * (g - 1) * m.step(size / g, "intra")
    # all g shard rings cross concurrently, but each moves only S/(g*Ng)
    cost += 2.0 * (num_groups - 1) * m.step(size / (g * num_groups), "inter", concurrent=g)
    return cost


def _cost_hier_leader(size: float, n: int, m: CostModel, groups: Groups) -> float:
    g, num_groups = _group_shape(n, groups)
    if num_groups == 1:
        return float("inf")
    cost = 0.0
    if g > 1:
        cost += 2.0 * math.ceil(math.log2(g)) * m.step(size, "intra")
    # exactly one leader per group on the fabric: no oversubscription penalty
    cost += 2.0 * (num_groups - 1) * m.step(size / num_groups, "inter")
    return cost


def _cost_ring_allgather(size: float, n: int, m: CostModel, groups: Groups) -> float:
    return (n - 1) * m.step(size / n, "inter")


def _cost_bruck_allgather(size: float, n: int, m: CostModel, groups: Groups) -> float:
    g, _ = _group_shape(n, groups)
    reach = _intra_reach(groups)
    cost, dist = 0.0, 1
    while dist < n:
        nbytes = min(dist, n - dist) * size / n
        scope = "intra" if dist < reach else "inter"
        cost += m.step(nbytes, scope, concurrent=g if scope == "inter" else 1)
        dist *= 2
    return cost


def _cost_ring_reduce_scatter(size: float, n: int, m: CostModel, groups: Groups) -> float:
    return (n - 1) * m.step(size / n, "inter")


def _cost_binomial_bcast(size: float, n: int, m: CostModel, groups: Groups) -> float:
    return math.ceil(math.log2(n)) * m.step(size, "inter")


def _cost_scatter_allgather(size: float, n: int, m: CostModel, groups: Groups) -> float:
    cost, mask = 0.0, 1
    while mask < n:
        cost += m.step(size * mask / (2 * n), "inter")  # scatter level sizes halve
        mask *= 2
    return cost + (n - 1) * m.step(size / n, "inter")


def _cost_dissemination(size: float, n: int, m: CostModel, groups: Groups) -> float:
    return math.ceil(math.log2(n)) * m.step(1, "inter")


def _cost_pairwise_alltoall(size: float, n: int, m: CostModel, groups: Groups) -> float:
    g, _ = _group_shape(n, groups)
    return (n - 1) * m.step(size, "inter", concurrent=g)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CollectiveAlgorithm:
    """One selectable decomposition of a collective operation.

    Attributes
    ----------
    name:
        Registry key, unique per ``collective``.
    collective:
        Kind it decomposes: ``allreduce``, ``allgather``,
        ``reduce_scatter``, ``bcast``, ``barrier`` or ``alltoall``.
    emit:
        ``emit(ctx, size, deps=None)`` — emits the point-to-point schedule
        into ``ctx.builder`` and returns a ``DepMap``.  ``size`` is the
        collective's total buffer in bytes (per-pair bytes for
        ``alltoall``; ignored by ``barrier``); the rooted ``bcast``
        algorithms also take a ``root`` keyword.
    cost:
        ``cost(size, num_ranks, model, groups)`` — analytic LogGOPS cost in
        ns (``inf`` when the algorithm is inapplicable, e.g. a hierarchical
        algorithm without a usable grouping) of a communicator of two or
        more ranks; :func:`select_algorithm` prices one rank at 0.
    cost_formula:
        Human-readable cost formula, rendered by the CLI and docs.
    description:
        One-line summary for listings.
    hierarchical:
        Whether :attr:`emit` requires ``ctx.groups``.
    """

    name: str
    collective: str
    emit: Callable[..., DepMap]
    cost: Callable[[float, int, CostModel, Groups], float]
    cost_formula: str
    description: str
    hierarchical: bool = False


#: ``{collective kind: {algorithm name: CollectiveAlgorithm}}`` in
#: registration order (the order listings and the autotuner iterate in).
COLLECTIVE_ALGORITHMS: Dict[str, Dict[str, CollectiveAlgorithm]] = {}


def register_collective_algorithm(algorithm: CollectiveAlgorithm) -> CollectiveAlgorithm:
    """Register ``algorithm``; raises :class:`ValueError` on duplicate names."""
    kind = COLLECTIVE_ALGORITHMS.setdefault(algorithm.collective, {})
    if algorithm.name in kind:
        raise ValueError(
            f"collective algorithm {algorithm.name!r} already registered for "
            f"{algorithm.collective!r}"
        )
    kind[algorithm.name] = algorithm
    return algorithm


def collective_names() -> List[str]:
    """Collective kinds with at least one registered algorithm (sorted)."""
    return sorted(COLLECTIVE_ALGORITHMS)


def algorithm_names(collective: str) -> List[str]:
    """Algorithm names registered for ``collective``, in registration order."""
    try:
        return list(COLLECTIVE_ALGORITHMS[collective])
    except KeyError:
        raise ValueError(
            f"unknown collective {collective!r}; registered: {collective_names()}"
        ) from None


def get_algorithm(collective: str, name: str) -> CollectiveAlgorithm:
    """Resolve one registered algorithm; raises :class:`ValueError` with the
    available names when ``name`` is unknown."""
    kinds = COLLECTIVE_ALGORITHMS.get(collective)
    if kinds is None:
        raise ValueError(
            f"unknown collective {collective!r}; registered: {collective_names()}"
        )
    try:
        return kinds[name]
    except KeyError:
        raise ValueError(
            f"unknown {collective} algorithm {name!r}; registered: "
            f"{', '.join(kinds)}"
        ) from None


register_collective_algorithm(CollectiveAlgorithm(
    name="ring", collective="allreduce",
    emit=calgs.ring_allreduce,
    cost=_cost_ring_allreduce,
    cost_formula="2(N-1) * (L_inter + 2o + g + (S/N)G)",
    description="bandwidth-optimal chunked ring (reduce-scatter + allgather passes)",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="recursive_doubling", collective="allreduce",
    emit=calgs.recursive_doubling_allreduce,
    cost=_cost_recursive_doubling,
    cost_formula="(ceil(log2 N) + 2[N not pow2]) * (L + 2o + g + S*G)",
    description="latency-optimal pairwise exchange of the full buffer",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="reduce_bcast", collective="allreduce",
    emit=calgs.reduce_bcast_allreduce,
    cost=_cost_reduce_bcast,
    cost_formula="2*ceil(log2 N) * (L + 2o + g + S*G)",
    description="binomial reduce to rank 0 followed by a binomial broadcast",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="recursive_halving_doubling", collective="allreduce",
    emit=halgs.recursive_halving_doubling_allreduce,
    cost=_cost_rhd,
    cost_formula="2*log2(P)*(L + 2o + g) + 2*((P-1)/P)*S*G (+ fold for non-pow2)",
    description="Rabenseifner: recursive-halving reduce-scatter + recursive-doubling allgather",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="bucket", collective="allreduce",
    emit=halgs.bucket_allreduce,
    cost=_cost_bucket,
    cost_formula="2(b-1)*(L + 2o + g + (S/b)G) + 2(a-1)*(L + 2o + g + (S/ab)G), a*b=N",
    description="bucket / 2D-ring allreduce over a near-square virtual grid",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="hier_rs", collective="allreduce",
    emit=halgs.hierarchical_rs_allreduce,
    cost=_cost_hier_rs,
    cost_formula="2(g-1)*(L_intra + 2o + gap + (S/g)G) + 2(Ng-1)*(L_inter + 2o + gap + (S/(g*Ng))G)",
    description="two-level: intra-group reduce-scatter/allgather, per-shard rings across groups",
    hierarchical=True,
))
register_collective_algorithm(CollectiveAlgorithm(
    name="hier_leader", collective="allreduce",
    emit=halgs.hierarchical_leader_allreduce,
    cost=_cost_hier_leader,
    cost_formula="2*ceil(log2 g)*(L_intra + 2o + gap + S*G) + 2(Ng-1)*(L_inter + 2o + gap + (S/Ng)G)",
    description="two-level: binomial reduce/bcast within groups, leader ring across groups",
    hierarchical=True,
))

register_collective_algorithm(CollectiveAlgorithm(
    name="ring", collective="allgather",
    emit=calgs.ring_allgather,
    cost=_cost_ring_allgather,
    cost_formula="(N-1) * (L + 2o + g + (S/N)G)",
    description="ring allgather: per-rank blocks circulate once around the ring",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="bruck", collective="allgather",
    emit=halgs.bruck_allgather,
    cost=_cost_bruck_allgather,
    cost_formula="sum_k (L + 2o + g + min(2^k, N-2^k)*(S/N)*G), k < ceil(log2 N)",
    description="Bruck allgather: doubling block exchange in ceil(log2 N) rounds",
))

register_collective_algorithm(CollectiveAlgorithm(
    name="ring", collective="reduce_scatter",
    emit=calgs.ring_reduce_scatter,
    cost=_cost_ring_reduce_scatter,
    cost_formula="(N-1) * (L + 2o + g + (S/N)G)",
    description="ring reduce-scatter: each rank ends owning one reduced chunk",
))

register_collective_algorithm(CollectiveAlgorithm(
    name="binomial", collective="bcast",
    emit=lambda ctx, size, deps=None, root=0: calgs.binomial_bcast(ctx, size, root, deps),
    cost=_cost_binomial_bcast,
    cost_formula="ceil(log2 N) * (L + 2o + g + S*G)",
    description="binomial-tree broadcast (latency-optimal)",
))
register_collective_algorithm(CollectiveAlgorithm(
    name="scatter_allgather", collective="bcast",
    emit=lambda ctx, size, deps=None, root=0: halgs.scatter_allgather_bcast(ctx, size, root, deps),
    cost=_cost_scatter_allgather,
    cost_formula="sum_k (L + 2o + g + (S*2^k/2N)G) + (N-1)*(L + 2o + g + (S/N)G)",
    description="van de Geijn: binomial scatter + ring allgather (bandwidth-optimal)",
))

register_collective_algorithm(CollectiveAlgorithm(
    name="dissemination", collective="barrier",
    emit=lambda ctx, size, deps=None: calgs.dissemination_barrier(ctx, deps),
    cost=_cost_dissemination,
    cost_formula="ceil(log2 N) * (L + 2o + g)",
    description="dissemination barrier: log-round 1-byte notifications",
))

register_collective_algorithm(CollectiveAlgorithm(
    name="pairwise", collective="alltoall",
    emit=calgs.pairwise_alltoall,
    cost=_cost_pairwise_alltoall,
    cost_formula="(N-1) * (L + 2o + g + S_pair*G)",
    description="pairwise-exchange all-to-all (linear shift schedule)",
))


# ---------------------------------------------------------------------------
# the autotuner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmChoice:
    """Result of one :func:`select_algorithm` evaluation.

    Attributes
    ----------
    collective / size / num_ranks:
        The question that was asked (size in bytes).
    name:
        The cheapest applicable algorithm.
    cost_ns:
        Its analytic cost estimate in ns.
    costs:
        Every candidate's estimate (``inf`` = inapplicable), for reports.
    """

    collective: str
    size: int
    num_ranks: int
    name: str
    cost_ns: float
    costs: Dict[str, float] = field(default_factory=dict)


def select_algorithm(
    collective: str,
    size: int,
    num_ranks: int,
    params=None,
    topology=None,
    placement: Optional[Dict[int, int]] = None,
    groups: Groups = None,
    model: Optional[CostModel] = None,
) -> AlgorithmChoice:
    """Pick the cheapest registered algorithm under the LogGOPS cost model.

    Parameters
    ----------
    collective:
        Collective kind (``"allreduce"``, ``"allgather"``, ...).
    size:
        Message size in bytes (total buffer; per-pair bytes for
        ``alltoall``).
    num_ranks:
        Communicator size.
    params:
        :class:`~repro.network.config.LogGOPSParams` supplying L/o/g/G
        (defaults to the paper's AI-cluster values).
    topology / placement:
        Optional :class:`~repro.network.topology.base.Topology` (plus a
        ``{rank -> host}`` placement, identity by default).  Used twice:
        to derive locality ``groups`` when none are given, and to price
        intra- vs inter-group rounds with real path latencies.
    groups:
        Explicit locality partition in communicator ranks; overrides the
        topology-derived one.
    model:
        Pre-built :class:`CostModel`; overrides ``params``/``topology``.

    Returns
    -------
    AlgorithmChoice
        The winner plus every candidate's cost (ties break towards the
        earlier-registered algorithm).  Hierarchical algorithms are
        skipped (cost ``inf``) when no non-trivial grouping is available.
        A one-rank communicator costs 0 under every algorithm (it sends
        nothing), so the first registered one wins.
        This is the autotuner behind ``algorithm="auto"`` everywhere; pass
        an explicit name to any of those call sites to override it.
    """
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    if size < 0:
        raise ValueError("size must be non-negative")
    if groups is None and topology is not None:
        groups = groups_from_topology(range(num_ranks), topology, placement)
    if model is None:
        if params is None:
            from repro.network.config import LogGOPSParams

            params = LogGOPSParams()
        model = CostModel.from_loggops(
            params, topology=topology, groups=groups, placement=placement
        )
    candidates = COLLECTIVE_ALGORITHMS.get(collective)
    if not candidates:
        raise ValueError(
            f"unknown collective {collective!r}; registered: {collective_names()}"
        )
    costs: Dict[str, float] = {}
    best_name, best_cost = None, float("inf")
    for name, alg in candidates.items():
        cost = alg.cost(float(size), num_ranks, model, groups) if num_ranks > 1 else 0.0
        costs[name] = cost
        if cost < best_cost:
            best_name, best_cost = name, cost
    if best_name is None:  # all inf: single flat fallback
        best_name = next(iter(candidates))
        best_cost = costs[best_name]
    return AlgorithmChoice(
        collective=collective,
        size=size,
        num_ranks=num_ranks,
        name=best_name,
        cost_ns=best_cost,
        costs=costs,
    )


def resolve_algorithm(
    collective: str,
    name: str,
    size: int,
    num_ranks: int,
    params=None,
    topology=None,
    groups: Groups = None,
) -> CollectiveAlgorithm:
    """The one path from an algorithm name to its registered algorithm.

    ``"auto"`` asks :func:`select_algorithm` for the cheapest algorithm of
    ``collective`` at ``size`` bytes over ``num_ranks`` ranks (priced with
    ``params``, ``topology`` and ``groups`` as there); any other name goes
    through :func:`get_algorithm`, which raises :class:`ValueError` naming
    the registered algorithms when ``name`` is unknown.  The schedule
    generators and :func:`build_collective_schedule` resolve through here.
    """
    if name == "auto":
        name = select_algorithm(
            collective, size, num_ranks, params=params, topology=topology, groups=groups
        ).name
    return get_algorithm(collective, name)


# ---------------------------------------------------------------------------
# standalone schedule construction (sweeps, tests, docs examples)
# ---------------------------------------------------------------------------
def build_collective_schedule(
    collective: str,
    algorithm: str,
    num_ranks: int,
    size: int,
    groups: Groups = None,
    reduce_ns_per_byte: float = 0.0,
    root: int = 0,
    name: Optional[str] = None,
):
    """Emit one standalone collective as a :class:`~repro.goal.schedule.GoalSchedule`.

    Parameters
    ----------
    collective / algorithm:
        Registry coordinates (see :func:`algorithm_names`); ``algorithm``
        may be ``"auto"`` to let :func:`select_algorithm` pick (flat model,
        using the given ``groups``).
    num_ranks:
        Communicator size (ranks are 0..num_ranks-1).
    size:
        Buffer size in bytes (per-pair for ``alltoall``, ignored by
        ``barrier``).
    groups:
        Locality partition for hierarchical algorithms (communicator
        ranks).
    reduce_ns_per_byte:
        Reduction cost inserted as ``calc`` vertices (ns per byte).
    root:
        Root rank of a rooted collective (``bcast``); a nonzero root for
        any other collective raises :class:`ValueError`.
    name:
        Schedule name (defaults to ``"<collective>-<algorithm>-<N>"``).

    Returns
    -------
    GoalSchedule
        A validated-shape schedule ready for
        :func:`repro.scheduler.simulate`.
    """
    from repro.goal.builder import GoalBuilder

    rooted = collective == "bcast"
    if root and not rooted:
        raise ValueError(f"{collective} takes no root; got root={root}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    alg = resolve_algorithm(collective, algorithm, size, num_ranks, groups=groups)
    builder = GoalBuilder(
        num_ranks, name=name or f"{collective}-{alg.name}-{num_ranks}"
    )
    ctx = CollectiveContext(
        builder,
        list(range(num_ranks)),
        reduce_ns_per_byte=reduce_ns_per_byte,
        groups=groups,
    )
    alg.emit(ctx, size, None, **({"root": root} if rooted else {}))
    return builder.build()
