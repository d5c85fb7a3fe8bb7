"""Hierarchical and bandwidth-optimised collective algorithms.

This module extends the flat algorithm set of :mod:`repro.collectives.mpi`
with the algorithms real communication libraries switch to on large machines
(see ``docs/collectives.md`` for per-algorithm diagrams and cost formulas):

* :func:`recursive_halving_doubling_allreduce` — Rabenseifner's algorithm:
  a recursive-halving reduce-scatter followed by a recursive-doubling
  allgather.  Latency of the tree algorithms, bandwidth close to the ring.
* :func:`bucket_allreduce` — the bucket / 2D-ring allreduce: ranks form a
  near-square virtual grid; rings run along rows, then along columns over
  the scattered shards.  Cuts the ring's ``2(N-1)`` step count to
  ``2(a-1) + 2(b-1)`` for an ``a x b`` grid.
* :func:`hierarchical_rs_allreduce` — two-level allreduce over the
  context's locality groups: intra-group ring reduce-scatter, one
  inter-group ring per shard owner, intra-group ring allgather.  The shape
  NCCL/Horovod use across NVLink islands.
* :func:`hierarchical_leader_allreduce` — two-level allreduce for
  arbitrary group shapes: binomial reduce to a group leader, ring allreduce
  across leaders, binomial broadcast back.
* :func:`bruck_allgather` — Bruck's log-round allgather (latency-optimal
  for small contributions).
* :func:`scatter_allgather_bcast` — van de Geijn's large-message broadcast:
  binomial scatter plus ring allgather.

All functions follow the conventions of :mod:`repro.collectives.mpi`: sizes
are in bytes (the *total* buffer of the collective), emitted messages are
clamped to one byte, and each returns a ``DepMap`` of exit vertex handles
per participating global rank.

The hierarchical algorithms read the locality partition from
``ctx.groups`` (see :class:`~repro.collectives.context.CollectiveContext`)
and raise :class:`ValueError` when the context carries none — derive one
with :func:`~repro.collectives.context.groups_from_topology` or
:func:`~repro.collectives.context.contiguous_groups`.
"""
from __future__ import annotations

from typing import List, Optional

from repro.collectives import mpi as _mpi
from repro.collectives.context import CollectiveContext, DepMap, contiguous_groups


def _require_groups(ctx: CollectiveContext, algorithm: str) -> List[List[int]]:
    if ctx.groups is None and ctx.size > 1:
        raise ValueError(
            f"{algorithm} is a hierarchical algorithm and needs locality groups; "
            "construct the CollectiveContext with groups= (see "
            "repro.collectives.context.groups_from_topology / contiguous_groups)"
        )
    return ctx.groups or [[0]]


# ---------------------------------------------------------------------------
# Rabenseifner: recursive halving reduce-scatter + recursive doubling allgather
# ---------------------------------------------------------------------------
def recursive_halving_doubling_allreduce(
    ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None
) -> DepMap:
    """Rabenseifner's allreduce of a ``size``-byte buffer.

    The power-of-two core runs ``log2(p)`` recursive-halving rounds (round
    at distance ``d`` exchanges ``size * d / p`` bytes and reduces them)
    followed by ``log2(p)`` recursive-doubling allgather rounds with the
    mirrored sizes, moving ``~2 * size * (p-1)/p`` bytes per rank in
    ``2 * log2(p)`` rounds.  Non-power-of-two communicators use the same
    fold-in/fold-out scheme as
    :func:`repro.collectives.mpi.recursive_doubling_allreduce`.

    Parameters
    ----------
    ctx:
        Collective context (communicator, builder, tags, costs).
    size:
        Total buffer bytes being reduced.
    deps:
        Entry dependencies per global rank.

    Returns
    -------
    DepMap
        Exit vertex handle per global rank.
    """
    def rounds(pow2: int):
        distances = _mpi._doublings(pow2)
        halving = [(d, size * d // pow2, True) for d in reversed(distances)]
        return halving + [(d, size * d // pow2, False) for d in distances]

    return _mpi._pow2_fold(ctx, size, deps, rounds)


# ---------------------------------------------------------------------------
# two-level core shared by the bucket and hierarchical allreduces
# ---------------------------------------------------------------------------
def _two_level_allreduce(
    ctx: CollectiveContext,
    size: int,
    groups: List[List[int]],
    deps: Optional[DepMap],
) -> DepMap:
    """Ring reduce-scatter per group, shard rings across groups, ring allgather.

    ``groups`` partition the communicator ranks.  Phase 2 forms one ring per
    member *position*: position ``j`` of every group that has one exchanges
    its shard (``~size / len(group)`` bytes) with the other groups.  Groups
    of unequal size simply skip the positions they lack.
    """
    groups = [list(g) for g in groups if g]
    exits: DepMap = dict(deps) if deps else {}

    # phase 1 — intra-group ring reduce-scatter (each member ends owning a shard)
    mid: DepMap = dict(exits)
    for grp in groups:
        if len(grp) == 1:
            continue
        out = _mpi.ring_reduce_scatter(ctx.sub_context(grp), size, deps)
        mid.update(out)

    # phase 2 — per shard position, a ring allreduce across the groups
    after: DepMap = dict(mid)
    if len(groups) > 1:
        max_g = max(len(g) for g in groups)
        for position in range(max_g):
            members = [grp[position] for grp in groups if len(grp) > position]
            if len(members) < 2:
                continue
            holders = [len(grp) for grp in groups if len(grp) > position]
            shard = max(1, size // max(holders))
            out = _mpi.ring_allreduce(ctx.sub_context(members), shard, mid)
            after.update(out)

    # phase 3 — intra-group ring allgather of the full buffer
    result: DepMap = dict(after)
    for grp in groups:
        if len(grp) == 1:
            continue
        out = _mpi.ring_allgather(ctx.sub_context(grp), size, after)
        result.update(out)
    return {gr: h for gr, h in result.items() if h is not None}


def bucket_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Bucket (2D-ring) allreduce over a near-square virtual grid.

    The communicator is cut into contiguous rows of ``cols = N // rows``
    ranks where ``rows`` is the largest divisor of ``N`` not exceeding
    ``sqrt(N)`` (see :func:`grid_shape`); rings then run along rows
    (reduce-scatter and allgather of ``size`` bytes) and along columns
    (allreduce of the ``size / cols`` shards).  A prime ``N`` degenerates
    to the flat ring.  The grid is *virtual*: unlike the hierarchical
    variants it ignores placement, trading locality for a regular shape.
    """
    rows, cols = grid_shape(ctx.size)
    return _two_level_allreduce(ctx, size, contiguous_groups(ctx.size, cols), deps)


def grid_shape(n: int) -> tuple:
    """Near-square factorisation ``(rows, cols)`` of ``n`` with ``rows <= cols``.

    ``rows`` is the largest divisor of ``n`` not exceeding ``sqrt(n)``
    (1 when ``n`` is prime, making the bucket allreduce a flat ring).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rows = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            rows = d
        d += 1
    return rows, n // rows


def hierarchical_rs_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Two-level allreduce over the context's locality groups.

    Phase 1: ring reduce-scatter of ``size`` bytes inside every locality
    group, so each member owns one reduced shard (``~size / g`` bytes).
    Phase 2: member position ``j`` of every group runs a ring allreduce of
    its shard with position ``j`` of the other groups — only these shards
    cross the group boundary.  Phase 3: ring allgather of the full buffer
    inside every group.  Requires ``ctx.groups``; groups of unequal size
    skip the shard positions they lack.
    """
    return _two_level_allreduce(ctx, size, _require_groups(ctx, "hier_rs"), deps)


def hierarchical_leader_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Leader-based two-level allreduce over the context's locality groups.

    Phase 1: binomial-tree reduce of the full ``size``-byte buffer to each
    group's first member (the *leader*).  Phase 2: ring allreduce of the
    full buffer across the leaders — one rank per group on the fabric.
    Phase 3: binomial broadcast from each leader back into its group.
    Works for any group shape (the Horovod hierarchical-allreduce layout);
    moves more intra-group bytes than :func:`hierarchical_rs_allreduce`
    but keeps exactly one fabric participant per group.
    """
    groups = [list(g) for g in _require_groups(ctx, "hier_leader") if g]

    mid: DepMap = dict(deps) if deps else {}
    for grp in groups:
        if len(grp) == 1:
            continue
        out = _mpi.binomial_reduce(ctx.sub_context(grp), size, root=0, deps=deps)
        mid.update(out)

    after: DepMap = dict(mid)
    leaders = [grp[0] for grp in groups]
    if len(leaders) > 1:
        out = _mpi.ring_allreduce(ctx.sub_context(leaders), size, mid)
        after.update(out)

    result: DepMap = dict(after)
    for grp in groups:
        if len(grp) == 1:
            continue
        out = _mpi.binomial_bcast(ctx.sub_context(grp), size, root=0, deps=after)
        result.update(out)
    return {gr: h for gr, h in result.items() if h is not None}


# ---------------------------------------------------------------------------
# Bruck allgather and van de Geijn broadcast
# ---------------------------------------------------------------------------
def bruck_allgather(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Bruck's allgather of ``size`` total bytes in ``ceil(log2 N)`` rounds.

    In round ``k`` every rank sends the ``min(2^k, N - 2^k)`` blocks it has
    accumulated (``size / N`` bytes each) to rank ``r - 2^k`` and receives
    as many from rank ``r + 2^k``.  Latency-optimal for small per-rank
    contributions; the ring allgather moves the same bytes in ``N - 1``
    rounds but never sends a block twice.
    """
    n = ctx.size
    return _mpi._shift_rounds(
        ctx, deps,
        [(k, -d, min(d, n - d) * size // n) for k, d in enumerate(_mpi._doublings(n))],
    )


def binomial_scatter(
    ctx: CollectiveContext, size: int, root: int = 0, deps: Optional[DepMap] = None
) -> DepMap:
    """Binomial-tree scatter: the root's ``size``-byte buffer is halved down the tree.

    In the round at offset ``mask`` (descending powers of two), virtual
    rank ``vr < mask`` sends the segment destined for virtual ranks
    ``[vr + mask, min(vr + 2*mask, N))`` — about ``size * mask / N`` bytes —
    to ``vr + mask``.  Total traffic ``~size`` at the root, halving at each
    tree level.
    """
    n = ctx.size
    chunks = _mpi._chunk_sizes(size, n)
    tag = ctx.next_tag(len(_mpi._doublings(n)))
    last = ctx.entry(deps)
    for rnd, mask, child_v, parent, child in _mpi._binomial_edges(n, root, descending=True):
        ctx.transfer(last, parent, child, sum(chunks[child_v : min(child_v + mask, n)]), tag + rnd)
    return ctx.exits(last)


def scatter_allgather_bcast(
    ctx: CollectiveContext, size: int, root: int = 0, deps: Optional[DepMap] = None
) -> DepMap:
    """van de Geijn broadcast: binomial scatter, then ring allgather.

    Bandwidth-optimal for large messages: every rank sends and receives
    ``~2 * size * (N-1)/N`` bytes instead of the binomial tree's
    ``size * log2(N)`` at the root's children, at the price of ``N - 1``
    extra latency-bound allgather rounds.
    """
    mid = binomial_scatter(ctx, size, root=root, deps=deps)
    return _mpi.ring_allgather(ctx, size, mid)
