"""MPI-style collective algorithms decomposed into point-to-point GOAL ops.

These are the algorithms Schedgen substitutes for MPI collectives during
GOAL generation (paper §3.1.1).  Each function emits sends/receives (and
reduction ``calc`` vertices when the context defines a per-byte reduction
cost) into the context's builder and returns a ``DepMap`` with one handle
per participating global rank: the vertex all later operations of that rank
must depend on.

All byte counts refer to the full buffer size of the collective (``count *
datatype_size`` in MPI terms), except where a parameter name says
``per_rank`` / ``per_pair``.

Every algorithm is written on the emission core of
:class:`~repro.collectives.context.CollectiveContext` and on three shapes
shared with :mod:`repro.collectives.hierarchical` and
:mod:`repro.collectives.nccl`: the power-of-two fold (``_pow2_fold``),
the binomial tree (``_binomial_edges``) and shift rounds
(``_shift_rounds``).  Control messages (barriers, zero-byte collectives)
are emitted as 1-byte messages because the network backends model only
positive-size messages.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.collectives.context import CollectiveContext, DepMap


def _chunk_sizes(total: int, parts: int) -> List[int]:
    """Split ``total`` bytes into ``parts`` near-equal chunks (first chunks larger)."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _doublings(limit: int) -> List[int]:
    """The distances ``1, 2, 4, ...`` below ``limit``."""
    return [1 << k for k in range((limit - 1).bit_length())]


# ---------------------------------------------------------------------------
# the three shared shapes
# ---------------------------------------------------------------------------
def _pow2_fold(
    ctx: CollectiveContext,
    size: int,
    deps: Optional[DepMap],
    rounds: Callable[[int], Iterable[Tuple[int, int, bool]]],
) -> DepMap:
    """Exchange rounds over the largest power of two ``p <= N`` ranks.

    The ``N - p`` extra ranks first fold their ``size``-byte buffer into
    partner ``r - p`` (reduced there), the first ``p`` ranks then run
    ``rounds(p)`` — ``(distance, bytes, reduce)`` exchanges with partner
    ``r xor distance`` — and the partners finally return the result to the
    extra ranks.  Tags: fold-in ``base + extra``, round ``k`` at
    ``base + (N - p) + k``, fold-out after the last round.
    """
    n = ctx.size
    pow2 = 1 << (n.bit_length() - 1)
    rem = n - pow2
    steps = list(rounds(pow2))
    tag = ctx.next_tag(rem + len(steps) + rem)
    last = ctx.entry(deps)
    for extra in range(rem):
        ctx.transfer(last, pow2 + extra, extra, size, tag + extra, reduce=True)
    tag += rem
    for distance, nbytes, reduce in steps:
        ctx.exchange(
            last, tag,
            ((r, r ^ distance, r ^ distance, nbytes, nbytes) for r in range(pow2)),
            reduce,
        )
        tag += 1
    for extra in range(rem):
        ctx.transfer(last, extra, pow2 + extra, size, tag + extra)
    return ctx.exits(last)


def _binomial_edges(n: int, root: int, descending: bool = False) -> Iterator[Tuple[int, int, int, int, int]]:
    """Edges of the binomial tree over ``n`` ranks rooted at ``root``.

    Yields ``(round, mask, virtual_child, parent, child)``: in the round at
    offset ``mask`` (ascending powers of two, or descending), every virtual
    rank ``v < mask`` with ``v + mask < n`` is the parent of virtual rank
    ``virtual_child = v + mask``.  Virtual ranks are rotated so that
    ``root`` is virtual rank 0; ``parent`` and ``child`` are communicator
    ranks.
    """
    masks = _doublings(n)
    if descending:
        masks.reverse()
    for rnd, mask in enumerate(masks):
        for v in range(min(mask, n - mask)):
            yield rnd, mask, v + mask, (v + root) % n, (v + mask + root) % n


def _shift_rounds(
    ctx: CollectiveContext, deps: Optional[DepMap], rounds: Iterable[Tuple[int, int, int]]
) -> DepMap:
    """Exchange rounds in which every rank ``r`` sends to ``r + shift``.

    ``rounds`` yields ``(tag_offset, shift, bytes)``; rank ``r`` receives
    from ``r - shift`` (both modulo ``N``) in the same round.
    """
    n = ctx.size
    rounds = list(rounds)
    tag = ctx.next_tag(1 + max((offset for offset, _, _ in rounds), default=0))
    last = ctx.entry(deps)
    for offset, shift, nbytes in rounds:
        ctx.exchange(
            last, tag + offset,
            ((r, (r + shift) % n, (r - shift) % n, nbytes, nbytes) for r in range(n)),
        )
    return ctx.exits(last)


# ---------------------------------------------------------------------------
# reduce-scatter / allgather rings (building blocks of the ring allreduce)
# ---------------------------------------------------------------------------
def ring_reduce_scatter(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Ring reduce-scatter of ``size`` total bytes.

    ``N - 1`` steps of ``size / N``-byte chunk exchanges (plus a reduction
    ``calc`` per received chunk when the context prices reductions); after
    the last step every rank owns one fully reduced chunk.  Returns the
    exit handle per global rank.
    """
    return _ring(ctx, size, deps, ctx.size - 1, reduce_steps=ctx.size - 1)


def ring_allgather(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Ring allgather of a buffer of ``size`` *total* bytes.

    Each rank contributes ``size / N`` bytes; chunks circulate around the
    ring for ``N - 1`` steps.  Returns the exit handle per global rank.
    """
    return _ring(ctx, size, deps, ctx.size - 1, reduce_steps=0)


def ring_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Ring allreduce of ``size`` total bytes: reduce-scatter then allgather.

    This is the bandwidth-optimal algorithm used by both MPI libraries (for
    large messages) and NCCL's ring algorithm; every rank sends and receives
    ``2 * size * (N-1) / N`` bytes over ``2 * (N-1)`` steps.  Returns the
    exit handle per global rank.
    """
    return _ring(ctx, size, deps, 2 * (ctx.size - 1), reduce_steps=ctx.size - 1)


def _ring(ctx: CollectiveContext, size: int, deps: Optional[DepMap], steps: int, reduce_steps: int) -> DepMap:
    """``steps`` ring steps; in step ``s`` rank ``r`` passes chunk ``r - s`` on."""
    n = ctx.size
    chunks = _chunk_sizes(size, n)
    tag = ctx.next_tag(steps)
    last = ctx.entry(deps)
    for step in range(steps):
        ctx.exchange(
            last, tag + step,
            ((r, (r + 1) % n, (r - 1) % n, chunks[(r - step) % n], chunks[(r - step - 1) % n])
             for r in range(n)),
            reduce=step < reduce_steps,
        )
    return ctx.exits(last)


# ---------------------------------------------------------------------------
# recursive doubling allreduce
# ---------------------------------------------------------------------------
def recursive_doubling_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Recursive-doubling allreduce of ``size`` bytes (latency-optimal).

    ``ceil(log2 N)`` rounds in which every rank exchanges the *full*
    ``size``-byte buffer with a partner at doubling distance.  Non-power-of-
    two communicator sizes use the standard fold (``_pow2_fold``): ``r``
    extra ranks fold their data into a partner before the power-of-two
    exchange and receive the result after it.  Returns the exit handle per
    global rank.
    """
    return _pow2_fold(ctx, size, deps, lambda p: [(d, size, True) for d in _doublings(p)])


# ---------------------------------------------------------------------------
# binomial trees: bcast / reduce, and the composed allreduce
# ---------------------------------------------------------------------------
def binomial_bcast(ctx: CollectiveContext, size: int, root: int = 0, deps: Optional[DepMap] = None) -> DepMap:
    """Binomial-tree broadcast of ``size`` bytes from communicator rank ``root``.

    ``ceil(log2 N)`` rounds; the holder set doubles each round, every
    transfer moving the full buffer.  Returns the exit handle per global
    rank.
    """
    tag = ctx.next_tag(len(_doublings(ctx.size)))
    last = ctx.entry(deps)
    for rnd, _, _, parent, child in _binomial_edges(ctx.size, root):
        ctx.transfer(last, parent, child, size, tag + rnd)
    return ctx.exits(last)


def binomial_reduce(ctx: CollectiveContext, size: int, root: int = 0, deps: Optional[DepMap] = None) -> DepMap:
    """Binomial-tree reduction of ``size`` bytes to communicator rank ``root``.

    The mirror of :func:`binomial_bcast`: children send the full buffer up
    the same virtual tree, parents insert a reduction ``calc`` per received
    buffer when the context prices reductions.  Returns the exit handle per
    global rank.
    """
    tag = ctx.next_tag(len(_doublings(ctx.size)))
    last = ctx.entry(deps)
    for rnd, _, _, parent, child in _binomial_edges(ctx.size, root, descending=True):
        ctx.transfer(last, child, parent, size, tag + rnd, reduce=True)
    return ctx.exits(last)


def reduce_bcast_allreduce(ctx: CollectiveContext, size: int, deps: Optional[DepMap] = None) -> DepMap:
    """Allreduce of ``size`` bytes: binomial reduce to rank 0, then broadcast.

    ``2 * ceil(log2 N)`` full-buffer rounds.  Returns the exit handle per
    global rank.
    """
    mid = binomial_reduce(ctx, size, root=0, deps=deps)
    return binomial_bcast(ctx, size, root=0, deps=mid)


# ---------------------------------------------------------------------------
# gather / scatter / alltoall / barrier
# ---------------------------------------------------------------------------
def linear_gather(ctx: CollectiveContext, size_per_rank: int, root: int = 0, deps: Optional[DepMap] = None) -> DepMap:
    """Linear gather: every non-root rank sends ``size_per_rank`` bytes to the root.

    ``N - 1`` concurrent transfers (distinct tags), serialised only by the
    root's NIC in the backends.  Returns the exit handle per global rank.
    """
    return _linear(ctx, size_per_rank, root, deps, to_root=True)


def linear_scatter(ctx: CollectiveContext, size_per_rank: int, root: int = 0, deps: Optional[DepMap] = None) -> DepMap:
    """Linear scatter: the root sends each rank its ``size_per_rank``-byte slice.

    The dual of :func:`linear_gather`.  Returns the exit handle per global
    rank.
    """
    return _linear(ctx, size_per_rank, root, deps, to_root=False)


def _linear(ctx: CollectiveContext, nbytes: int, root: int, deps: Optional[DepMap], to_root: bool) -> DepMap:
    """One message per non-root rank, all after the entries; joined per rank."""
    tag = ctx.tags.next_base(ctx.size)  # unlike next_tag(), drawn for one rank too
    entry = ctx.entry(deps)
    last = list(entry)
    handles = [[] if h is None else [h] for h in entry]
    for r in range(ctx.size):
        if r != root:
            last[root] = entry[root]
            src, dst = (r, root) if to_root else (root, r)
            ctx.transfer(last, src, dst, nbytes, tag + r)
            handles[r].append(last[r])
            handles[root].append(last[root])
    return ctx.join(dict(zip(ctx.ranks, handles)))


def pairwise_alltoall(ctx: CollectiveContext, size_per_pair: int, deps: Optional[DepMap] = None) -> DepMap:
    """Pairwise-exchange all-to-all: N-1 rounds, rank ``r`` exchanges with ``r xor/offset``.

    Uses the linear-shift schedule (round ``k``: send to ``(r+k) % N``,
    receive from ``(r-k) % N``), the common choice for large messages.
    ``size_per_pair`` is the bytes every rank sends to every *other* rank
    (``N - 1`` rounds, one exchange per rank per round).  Returns the exit
    handle per global rank.
    """
    return _shift_rounds(ctx, deps, [(k, k, size_per_pair) for k in range(1, ctx.size)])


def dissemination_barrier(ctx: CollectiveContext, deps: Optional[DepMap] = None) -> DepMap:
    """Dissemination barrier: ``ceil(log2 N)`` rounds of 1-byte messages.

    Round ``k`` notifies the rank at distance ``2^k``; after the last round
    every rank transitively depends on every other.  Returns the exit
    handle per global rank.
    """
    return _shift_rounds(ctx, deps, [(k, d, 1) for k, d in enumerate(_doublings(ctx.size))])
