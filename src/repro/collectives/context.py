"""Shared context for collective decomposition.

A :class:`CollectiveContext` bundles everything a collective algorithm needs
to emit its point-to-point schedule:

* the :class:`~repro.goal.builder.GoalBuilder` being populated,
* the ordered list of *global* rank ids forming the communicator (index in
  the list = rank within the communicator),
* a :class:`TagAllocator` producing collision-free message tags,
* the reduction cost per byte, used to insert a ``calc`` vertex after every
  received buffer the algorithm combines.

Dependencies flow through ``DepMap`` dictionaries: ``{global_rank: vertex
handle}``.  Each algorithm takes the handles its first operations must wait
on and returns the handles subsequent operations should wait on.

Every algorithm is written on four methods of the context (see
``docs/collectives.md``, "How an algorithm is written"):
:meth:`~CollectiveContext.entry` turns the entry ``DepMap`` into one
``last`` handle per communicator rank, :meth:`~CollectiveContext.exchange`
emits one round in which ranks send and receive concurrently,
:meth:`~CollectiveContext.transfer` emits one message, and
:meth:`~CollectiveContext.exits` turns ``last`` back into a ``DepMap``.

Hierarchy metadata
------------------
A context optionally carries ``groups`` — a partition of the communicator
into *locality groups* (ranks sharing a node, a ToR switch, a dragonfly
router, ...).  Hierarchical algorithms (see
:mod:`repro.collectives.hierarchical`) split their communication into a
cheap intra-group phase and a narrow inter-group phase along this
partition; flat algorithms ignore it.  Groups are expressed in
*communicator* ranks (indices into ``ranks``) and are typically derived
from a placement with :func:`groups_from_topology` or
:func:`contiguous_groups`.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.goal.builder import GoalBuilder, RankBuilder

#: ``{global rank id -> vertex handle}`` — the exit vertex each rank's later
#: operations must depend on.
DepMap = Dict[int, int]


def contiguous_groups(size: int, group_size: int) -> List[List[int]]:
    """Partition ``size`` communicator ranks into contiguous locality groups.

    Parameters
    ----------
    size:
        Number of ranks in the communicator (must be positive).
    group_size:
        Ranks per group (must be positive).  The last group is smaller when
        ``group_size`` does not divide ``size``.

    Returns
    -------
    list of list of int
        Communicator-rank groups ``[[0..g-1], [g..2g-1], ...]`` — the
        natural hierarchy when ranks are packed onto nodes in order (e.g.
        consecutive GPU ids per node).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    return [
        list(range(start, min(start + group_size, size)))
        for start in range(0, size, group_size)
    ]


def groups_from_topology(
    ranks: Sequence[int],
    topology,
    placement: Optional[Dict[int, int]] = None,
) -> List[List[int]]:
    """Group a communicator's ranks by the first-hop switch of their host.

    Parameters
    ----------
    ranks:
        Global rank ids of the communicator, in communicator order.
    topology:
        A :class:`~repro.network.topology.base.Topology`; its
        :meth:`~repro.network.topology.base.Topology.host_groups` (hosts
        sharing a ToR / torus router / dragonfly router / Slim Fly router)
        define the locality unit.
    placement:
        Optional ``{global rank -> host id}`` mapping (e.g. from a
        :class:`~repro.placement.PlacementResult`).  Defaults to the
        identity: rank ``r`` runs on host ``r``.

    Returns
    -------
    list of list of int
        *Communicator-rank* groups (indices into ``ranks``), one group per
        first-hop switch that hosts at least one rank, in switch order.
        Suitable for :class:`CollectiveContext`'s ``groups`` parameter.
    """
    ranks = list(ranks)
    host_of = placement if placement is not None else {r: r for r in ranks}
    switch_groups = topology.host_groups()
    host_to_group: Dict[int, int] = {}
    for idx, hosts in enumerate(switch_groups):
        for h in hosts:
            host_to_group[h] = idx
    grouped: Dict[int, List[int]] = {}
    for comm_rank, global_rank in enumerate(ranks):
        host = host_of.get(global_rank, global_rank)
        if host not in host_to_group:
            raise ValueError(
                f"rank {global_rank} is placed on host {host}, which the "
                f"topology does not contain (num_hosts={topology.num_hosts})"
            )
        grouped.setdefault(host_to_group[host], []).append(comm_rank)
    return [grouped[idx] for idx in sorted(grouped)]


def project_groups(
    groups: Sequence[Sequence[int]], members: Sequence[int]
) -> List[List[int]]:
    """Project global-rank locality groups onto one communicator.

    Parameters
    ----------
    groups:
        Locality partition in *global* rank ids (e.g. ranks per node).
    members:
        Global rank ids of the communicator, in communicator order.

    Returns
    -------
    list of list of int
        *Communicator-rank* groups (indices into ``members``): each global
        group intersected with the communicator, empties dropped, and
        members outside every group appended as singleton groups — so the
        result always partitions the communicator and is directly usable
        as :class:`CollectiveContext`'s ``groups``.
    """
    index = {global_rank: i for i, global_rank in enumerate(members)}
    projected = [
        [index[r] for r in grp if r in index] for grp in groups
    ]
    projected = [g for g in projected if g]
    covered = {r for g in projected for r in g}
    projected.extend([i] for i in range(len(members)) if i not in covered)
    return projected


def validate_groups(groups: Sequence[Sequence[int]], size: int) -> List[List[int]]:
    """Check that ``groups`` is a partition of ``range(size)``; return a copy.

    Raises :class:`ValueError` on empty groups, out-of-range ranks,
    duplicates, or missing ranks.
    """
    result = [list(g) for g in groups]
    seen: List[int] = [r for g in result for r in g]
    if any(not g for g in result):
        raise ValueError("locality groups must be non-empty")
    if len(set(seen)) != len(seen):
        raise ValueError("locality groups contain duplicate ranks")
    if sorted(seen) != list(range(size)):
        raise ValueError(
            f"locality groups must partition all {size} communicator ranks; got {sorted(seen)}"
        )
    return result


class TagAllocator:
    """Hands out unique message-tag ranges.

    Every collective instance draws a fresh base tag for the ``span`` tags
    it uses (offsets ``0 .. span - 1``: round numbers, chunk ids) and the
    allocator moves past them by whole strides.  This guarantees that two
    collectives — even identical ones executing concurrently on the same
    communicator — can never cross-match their messages under FIFO
    matching, however many tags one of them uses.
    """

    def __init__(self, start: int = 1, stride: int = 4096) -> None:
        if start < 0 or stride <= 0:
            raise ValueError("start must be >= 0 and stride positive")
        self._next = start
        self.stride = stride

    def next_base(self, span: int) -> int:
        """Reserve ``span`` consecutive tags; return the first.

        The allocator advances by ``ceil(span / stride)`` strides (at least
        one), so a span up to ``stride`` costs exactly one.
        """
        base = self._next
        self._next += self.stride * max(1, -(-span // self.stride))
        return base


class CollectiveContext:
    """Execution context shared by all collective algorithms.

    Parameters
    ----------
    builder:
        The GOAL builder to emit operations into.
    ranks:
        Global rank ids of the communicator, in communicator order.
    tags:
        Tag allocator (a fresh one is created when omitted).
    reduce_ns_per_byte:
        Cost of combining one byte of data in a reduction (inserted as a
        ``calc`` after each received chunk that must be reduced).
    cpu:
        Compute stream on which the collective's ops are placed.
    groups:
        Optional locality partition of the communicator, as a sequence of
        groups of *communicator* ranks (see :func:`contiguous_groups` /
        :func:`groups_from_topology`).  Hierarchical algorithms require it;
        flat algorithms ignore it.
    """

    def __init__(
        self,
        builder: GoalBuilder,
        ranks: Sequence[int],
        tags: Optional[TagAllocator] = None,
        reduce_ns_per_byte: float = 0.0,
        cpu: int = 0,
        groups: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        if not ranks:
            raise ValueError("communicator must contain at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError("communicator contains duplicate ranks")
        self.builder = builder
        self.ranks = list(ranks)
        self.tags = tags if tags is not None else TagAllocator()
        self.reduce_ns_per_byte = reduce_ns_per_byte
        self.cpu = cpu
        self.groups = (
            validate_groups(groups, len(self.ranks)) if groups is not None else None
        )

    # -- helpers ---------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.ranks)

    def rank_builder(self, comm_rank: int) -> RankBuilder:
        """Builder of the ``comm_rank``-th rank of the communicator."""
        return self.builder.rank(self.ranks[comm_rank])

    def sub_context(
        self, comm_ranks: Sequence[int], cpu: Optional[int] = None
    ) -> "CollectiveContext":
        """Context of a sub-communicator over ``comm_ranks`` of this one.

        The sub-context shares this context's builder, tag allocator and
        cost parameters, so schedules it emits compose with (and never
        cross-match against) the parent's.  ``comm_ranks`` are ranks of
        *this* communicator; the sub-communicator orders them as given.
        Hierarchical algorithms use this to emit their intra-group and
        inter-group phases.
        """
        return CollectiveContext(
            self.builder,
            [self.ranks[r] for r in comm_ranks],
            tags=self.tags,
            reduce_ns_per_byte=self.reduce_ns_per_byte,
            cpu=self.cpu if cpu is None else cpu,
        )

    def reduce_cost(self, nbytes: int) -> int:
        """Reduction ``calc`` cost for ``nbytes`` (0 when not configured)."""
        return int(round(self.reduce_ns_per_byte * nbytes))

    def next_tag(self, span: int) -> int:
        """A fresh base tag for one collective instance using ``span`` tags.

        A one-rank communicator exchanges no message, so it draws none (and
        gets 0): an emitter then runs no round and returns its entries.
        """
        return 0 if len(self.ranks) == 1 else self.tags.next_base(span)

    # -- the emission core -----------------------------------------------------
    def entry(self, deps: Optional[DepMap]) -> List[Optional[int]]:
        """Per communicator rank, the handle its first op waits on, or ``None``."""
        if not deps:
            return [None] * len(self.ranks)
        return [deps.get(g) for g in self.ranks]

    def exits(self, last: Sequence[Optional[int]]) -> DepMap:
        """The ``DepMap`` of ``last``: every rank that holds a handle."""
        return {g: h for g, h in zip(self.ranks, last) if h is not None}

    def exchange(
        self,
        last: List[Optional[int]],
        tag: int,
        pairs: Iterable[Tuple[int, int, int, int, int]],
        reduce: bool = False,
    ) -> None:
        """Emit one round in which ranks send and receive concurrently.

        ``pairs`` yields ``(r, dst, src, send_bytes, recv_bytes)`` in
        communicator ranks, each ``r`` at most once.  Rank ``r`` sends to
        ``dst`` and receives from ``src``, both after ``last[r]``, joins the
        two in a dummy vertex and, when ``reduce`` is set and the context
        prices reductions, combines the received bytes in a ``calc``.
        ``last[r]`` becomes the rank's final vertex.  Messages are clamped to
        one byte; the reduction is priced on the unclamped ``recv_bytes``.
        """
        cpu, ranks, rank = self.cpu, self.ranks, self.builder.rank
        price = reduce and self.reduce_ns_per_byte
        for r, dst, src, send_bytes, recv_bytes in pairs:
            rb = rank(ranks[r])
            prev = last[r]
            tail = rb.sendrecv(
                max(1, send_bytes), ranks[dst], max(1, recv_bytes), ranks[src], tag, cpu,
                () if prev is None else (prev,),
            )
            if price:
                tail = rb.calc(self.reduce_cost(recv_bytes), cpu, (tail,))
            last[r] = tail

    def transfer(
        self,
        last: List[Optional[int]],
        src: int,
        dst: int,
        nbytes: int,
        tag: int,
        reduce: bool = False,
    ) -> None:
        """Emit one ``nbytes`` message from ``src`` to ``dst`` (communicator ranks).

        The send waits on ``last[src]``, the receive on ``last[dst]``; both
        entries are updated, the receiver's to a reduction ``calc`` after the
        receive when ``reduce`` is set and the context prices reductions.
        Same clamp and pricing rule as :meth:`exchange`.
        """
        cpu, size = self.cpu, max(1, nbytes)
        before = last[src]
        last[src] = self.rank_builder(src).send(
            size, self.ranks[dst], tag, cpu, () if before is None else (before,)
        )
        rb = self.rank_builder(dst)
        before = last[dst]
        tail = rb.recv(size, self.ranks[src], tag, cpu, () if before is None else (before,))
        if reduce and self.reduce_ns_per_byte:
            tail = rb.calc(self.reduce_cost(nbytes), cpu, (tail,))
        last[dst] = tail

    def join(self, handles_per_rank: Dict[int, List[int]]) -> DepMap:
        """Collapse several handles per global rank into one via dummy vertices.

        Ranks with a single handle keep it; ranks with several get a dummy
        join vertex.  Ranks with no handles are omitted from the result.
        """
        result: DepMap = {}
        for global_rank, handles in handles_per_rank.items():
            if not handles:
                continue
            if len(handles) == 1:
                result[global_rank] = handles[0]
            else:
                rb = self.builder.rank(global_rank)
                result[global_rank] = rb.join(handles, cpu=self.cpu)
        return result
