"""Rank-level and program-level GOAL schedules.

A :class:`RankSchedule` is a dependency DAG over GOAL ops for one rank (one
network endpoint: an MPI rank, a node, or a GPU, depending on the granularity
chosen during GOAL generation).  A :class:`GoalSchedule` is the ordered
collection of rank schedules that makes up a whole simulated program.

Layout
------
A rank is a struct of arrays, not a list of objects.  Vertex ``i`` (insertion
order) is row ``i`` of five :class:`array.array` columns::

    kind  'B'   0 send, 1 recv, 2 calc (the OpType values)
    size  'Q'   bytes, or nanoseconds for a calc
    peer  'Q'   destination / source rank; 0 for a calc (the kind column,
                not a sentinel, says that a calc has no peer)
    tag   'Q'
    cpu   'Q'

and its dependencies are rows ``pred_ptr[i] : pred_ptr[i + 1]`` of
``pred_idx`` (CSR, both ``'q'``), each row sorted, duplicate-free and pointing
at earlier vertices only.  That is 33 bytes per vertex plus 8 per vertex and
per edge, against the ~260 of an ``Op`` object with its predecessor list, and
it is the shape the binary format already has.  ``array`` gives amortised
O(1) ``append`` for the builders; numpy reads the same memory through the
buffer protocol (:meth:`RankSchedule.columns`, :meth:`RankSchedule.pred_csr`,
no copy) for everything that works on whole columns -- codecs, validation,
merging.  Such a view must not be kept: an ``array`` that exports a buffer
cannot grow.

A vertex is its five fields and its dependencies, nothing more: the names
of the textual format (``l1:``) are local to the parser's rank block and
never reach a schedule.  :class:`~repro.goal.ops.Op` remains the value type
of the API: ``rank.ops`` and ``rank.preds`` are sequence views that build an
``Op`` / a list per access.

Append-only
-----------
A rank grows only by appending (:meth:`RankSchedule.append_op`,
:meth:`RankSchedule.add_op`, :meth:`RankSchedule.append_sendrecv`,
:meth:`RankSchedule.extend`, :func:`append_stacked`), each of which checks
what it is given; transforms (:mod:`repro.goal.merge`) return
new schedules; the views are read-only (an ``Op`` refuses field assignment,
the numpy views refuse writes).  The raw ``array`` columns stay public
attributes for the readers that walk them, so the validator and the encoder
keep their backward-edge checks.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.goal.ops import _CALC, _RECV, _SEND, Op, OpType, _set_slot, checked_fields

_KINDS = (_SEND, _RECV, _CALC)
#: the kind column of one send/recv round (:meth:`RankSchedule.append_sendrecv`)
_ROUND = bytes(_KINDS)


def _column(typecode: str, values: np.ndarray) -> array:
    """``values`` (already of the matching dtype) as a fresh ``array``."""
    return array(typecode, values.tobytes())


def _read_only(column: array, dtype: type) -> np.ndarray:
    """``column`` as a numpy view (no copy) that refuses writes."""
    return np.frombuffer(memoryview(column).toreadonly(), dtype=dtype)


def _as_u64(what: str, values: object) -> np.ndarray:
    """``values`` as a uint64 array; refuses non-integers and negatives."""
    arr = np.asarray(values)
    if arr.dtype == np.uint64:
        return arr
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} column must hold integers in 0 <= v < 2**64, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        raise ValueError(f"{what} must be non-negative, got {int(arr.min())}")
    return arr.astype(np.uint64)


def exact_sum(values: np.ndarray) -> int:
    """Sum of a uint64 array as a Python int (a plain ``.sum()`` wraps at 2**64)."""
    return (int((values >> np.uint64(32)).sum()) << 32) + int((values & np.uint64(0xFFFFFFFF)).sum())


def edge_owners(degree: np.ndarray) -> np.ndarray:
    """Per entry of a CSR index, the row it belongs to (``degree[r]`` entries for row ``r``)."""
    return np.repeat(np.arange(len(degree)), degree)


def index_within(counts: object) -> np.ndarray:
    """``0 .. c - 1`` for every ``c`` of ``counts``, end to end: an entry's place in its row,
    a vertex's index in its rank."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def csr_from_edges(n: int, row: object, col: object) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(ptr, idx)`` over ``n`` rows from the pairs ``(row[k], col[k])``.

    Rows come out sorted and duplicate-free whatever the order of the pairs;
    pairs already in ``(row, col)`` order (what both writers emit) skip the
    sort.  With ``row`` the dependent vertex and ``col`` the required one this
    is the predecessor index; the other way round, the successor index.  The
    caller has checked ``0 <= row, col < n``.
    """
    row = np.asarray(row, dtype=np.int64)
    col = np.asarray(col, dtype=np.int64)
    if len(row) > 1:
        step = np.diff(row)
        if not ((step > 0) | ((step == 0) & (np.diff(col) > 0))).all():
            order = np.lexsort((col, row))
            row, col = row[order], col[order]
            keep = np.ones(len(row), dtype=bool)
            keep[1:] = (np.diff(row) != 0) | (np.diff(col) != 0)
            row, col = row[keep], col[keep]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr, col


def _checked_columns(
    kind: object,
    size: object,
    peer: object,
    tag: object,
    cpu: object,
    degree: object,
    dep: object,
    vertex: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Check whole columns as :meth:`RankSchedule.append_op` checks one vertex.

    The columns may span several ranks end to end: ``vertex`` is each row's
    index within its rank, ``degree`` its number of dependencies and ``dep``
    the required vertices (rank-local indices), row after row.  Returns the
    columns in their storage dtypes; raises ``ValueError`` on the first fault.
    """
    kind = np.asarray(kind)
    n = len(vertex)
    if kind.size and (kind.dtype.kind not in "iu" or int(kind.max()) > _CALC or int(kind.min()) < 0):
        raise ValueError("kind column must hold OpType values (0 send, 1 recv, 2 calc)")
    kind = kind.astype(np.uint8)
    size = _as_u64("op size", size)
    peer = _as_u64("peer rank", peer)
    tag = _as_u64("tag", tag)
    cpu = _as_u64("cpu (compute stream)", cpu)
    degree = np.asarray(degree, dtype=np.int64)
    dep = np.asarray(dep, dtype=np.int64)
    if not len(kind) == len(size) == len(peer) == len(tag) == len(cpu) == len(degree) == n:
        raise ValueError("columns must have one entry per vertex")
    if peer[kind == _CALC].any():
        raise ValueError("calc ops must not specify a peer")
    if (degree < 0).any() or int(degree.sum()) != len(dep):
        raise ValueError("dependency counts do not add up to the dependency column")
    owner = edge_owners(degree)
    bad = (dep < 0) | (dep >= vertex[owner])
    bad[1:] |= (owner[1:] == owner[:-1]) & (dep[1:] <= dep[:-1])
    if bad.any():
        at = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"dependency {int(dep[at])} of vertex {int(vertex[owner[at]])} is out of range or "
            "out of order (rows must be sorted, duplicate-free and point backwards)"
        )
    return kind, size, peer, tag, cpu, degree, dep


def _checked_deps(requires: Iterable[int], idx: int) -> List[int]:
    """``requires`` sorted and duplicate-free; raises unless each is a vertex before ``idx``."""
    deps = sorted(set(requires))
    if deps and (deps[0] < 0 or deps[-1] >= idx):
        bad = deps[0] if deps[0] < 0 else deps[-1]
        raise ValueError(
            f"dependency {bad} of new vertex {idx} is out of range "
            f"(must reference an earlier vertex)"
        )
    return deps


class StackedRanks(NamedTuple):
    """The columns of several ranks end to end (see :func:`stack_ranks`)."""

    kind: np.ndarray
    size: np.ndarray
    peer: np.ndarray
    tag: np.ndarray
    cpu: np.ndarray
    #: dependencies per vertex, and the required vertices (rank-local) row after row
    degree: np.ndarray
    dep: np.ndarray
    #: per vertex: position of its rank in the stacked sequence, index within that rank
    rank_of: np.ndarray
    vertex: np.ndarray


def stack_ranks(ranks: Sequence["RankSchedule"]) -> StackedRanks:
    """Concatenate the columns of ``ranks`` (copies), for whole-schedule array passes.

    One pass over the stack costs the same few numpy calls whether the
    schedule is 8 ranks of 100 000 vertices or 2048 of 30.
    """
    kind, size, peer, tag, cpu = (
        np.concatenate(column) for column in zip(*(rank.columns() for rank in ranks))
    )
    csrs = [rank.pred_csr() for rank in ranks]
    counts = np.array([len(rank) for rank in ranks])
    return StackedRanks(
        kind, size, peer, tag, cpu,
        np.concatenate([np.diff(ptr) for ptr, _ in csrs]),
        np.concatenate([idx for _, idx in csrs]),
        edge_owners(counts), index_within(counts),
    )


def append_stacked(
    ranks: Sequence["RankSchedule"],
    counts: object,
    kind: object,
    size: object,
    peer: object,
    tag: object,
    cpu: object,
    degree: object,
    dep: object,
) -> None:
    """Append ``counts[i]`` vertices to ``ranks[i]`` from their columns end to end.

    The inverse of :func:`stack_ranks`, onto ranks that may already hold
    vertices: ``degree`` is the number of dependencies per new vertex and
    ``dep`` the required vertices (rank-local indices, so a new vertex may
    require one the rank held before), row after row, each row sorted and
    duplicate-free.  Checked in one array pass, like
    :meth:`RankSchedule.extend`; what the binary decoder calls, once per
    window of the stream.
    """
    counts = np.asarray(counts, dtype=np.int64)
    held = np.array([len(rank) for rank in ranks], dtype=np.int64)
    kind, size, peer, tag, cpu, degree, dep = _checked_columns(
        kind, size, peer, tag, cpu, degree, dep, index_within(counts) + np.repeat(held, counts)
    )
    op_ends = np.cumsum(counts)
    edge_ends = np.concatenate(([0], np.cumsum(degree)))[op_ends].tolist()
    edge_start = 0
    for rank, start, end, edge_end, base in zip(
        ranks, (op_ends - counts).tolist(), op_ends.tolist(), edge_ends, held.tolist()
    ):
        if end > start:
            ops = slice(start, end)
            rank._append_columns(
                kind[ops], size[ops], peer[ops], tag[ops], cpu[ops], degree[ops],
                dep[edge_start:edge_end] - base,
            )
        edge_start = edge_end


def _op_at(rank: "RankSchedule", vertex: int) -> Op:
    """Vertex ``vertex`` of ``rank`` as an :class:`Op` (its fields were checked on the way in)."""
    op = object.__new__(Op)
    kind = rank.kind[vertex]
    for name, value in (
        ("kind", _KINDS[kind]),
        ("size", rank.size[vertex]),
        ("peer", None if kind == _CALC else rank.peer[vertex]),
        ("tag", rank.tag[vertex]),
        ("cpu", rank.cpu[vertex]),
    ):
        _set_slot(op, name, value)
    return op


class OpsView(Sequence):
    """``rank.ops``: the rank's vertices as a read-only sequence of :class:`Op`.

    Indexing and iteration build an (immutable) ``Op`` from the columns.
    ``==`` compares field columns against another view, or op by op against
    a list.
    """

    __slots__ = ("_rank",)

    def __init__(self, rank: "RankSchedule") -> None:
        self._rank = rank

    def __len__(self) -> int:
        return len(self._rank.kind)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_op_at(self._rank, v) for v in range(*index.indices(len(self)))]
        n = len(self)
        vertex = index + n if index < 0 else index
        if not 0 <= vertex < n:
            raise IndexError("op index out of range")
        return _op_at(self._rank, vertex)

    def __iter__(self) -> Iterator[Op]:
        rank = self._rank
        return (_op_at(rank, vertex) for vertex in range(len(rank.kind)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OpsView):
            a, b = self._rank, other._rank
            return (
                a.kind == b.kind
                and a.size == b.size
                and a.peer == b.peer
                and a.tag == b.tag
                and a.cpu == b.cpu
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class PredsView(Sequence):
    """``rank.preds``: per vertex, the sorted list of vertices it requires.

    ``preds[i]`` is a fresh list (changing it changes nothing).
    """

    __slots__ = ("_rank",)

    def __init__(self, rank: "RankSchedule") -> None:
        self._rank = rank

    def __len__(self) -> int:
        return len(self._rank.kind)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._rank._pred_rows()[index]
        n = len(self)
        vertex = index + n if index < 0 else index
        if not 0 <= vertex < n:
            raise IndexError("vertex index out of range")
        ptr = self._rank.pred_ptr
        return self._rank.pred_idx[ptr[vertex] : ptr[vertex + 1]].tolist()

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self._rank._pred_rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PredsView):
            a, b = self._rank, other._rank
            return a.pred_ptr == b.pred_ptr and a.pred_idx == b.pred_idx
        if isinstance(other, (list, tuple)):
            return self._rank._pred_rows() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._rank._pred_rows())


class RankSchedule:
    """Dependency DAG of GOAL ops for a single rank.

    Parameters
    ----------
    rank:
        The rank id this schedule belongs to.

    Notes
    -----
    The field columns ``kind``, ``size``, ``peer``, ``tag``, ``cpu`` and the
    dependency index ``pred_ptr`` / ``pred_idx`` are described in the module
    docstring; ``ops`` and ``preds`` present them as sequences of
    :class:`Op` / lists.  A rank only grows, through :meth:`append_op`
    (scalars), :meth:`add_op` (an ``Op``), :meth:`append_sendrecv` (a
    send/recv round and its join) or :meth:`extend` (whole columns): each
    checks what it is given, so the columns always hold a valid DAG.
    Nothing rewrites a vertex already appended; a transform builds a new
    schedule.
    """

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        self.rank = int(rank)
        self.kind = array("B")
        self.size = array("Q")
        self.peer = array("Q")
        self.tag = array("Q")
        self.cpu = array("Q")
        # CSR: vertex i requires pred_idx[pred_ptr[i]:pred_ptr[i + 1]]
        self.pred_ptr = array("q", (0,))
        self.pred_idx = array("q")
        self._succ: Optional[Tuple[array, array]] = None

    # -- views ---------------------------------------------------------------
    @property
    def ops(self) -> OpsView:
        """The vertices as a sequence of :class:`Op` (see :class:`OpsView`)."""
        return OpsView(self)

    @property
    def preds(self) -> PredsView:
        """Per vertex, the list of vertices it requires (see :class:`PredsView`)."""
        return PredsView(self)

    def _pred_rows(self) -> List[List[int]]:
        ptr = self.pred_ptr.tolist()
        idx = self.pred_idx.tolist()
        return [idx[a:b] for a, b in zip(ptr, ptr[1:])]

    # -- construction ------------------------------------------------------
    def append_op(
        self,
        kind: int,
        size: int,
        peer: Optional[int] = None,
        tag: int = 0,
        cpu: int = 0,
        requires: Iterable[int] = (),
    ) -> int:
        """Append one vertex given by its fields and return its index.

        The scalar form of :meth:`add_op` (same checks, no ``Op`` is built);
        what :class:`~repro.goal.builder.RankBuilder` calls.
        """
        idx = len(self.kind)
        if kind == _CALC:
            if peer is not None:
                raise ValueError("calc ops must not specify a peer")
            stored_peer = 0
        elif kind == _SEND or kind == _RECV:
            if peer is None:
                raise ValueError(f"{_KINDS[kind].short()} requires a peer rank")
            stored_peer = peer
        else:
            raise ValueError(f"{kind!r} is not a valid OpType")
        # () and one earlier vertex (the common cases) skip the sort; else any iterable
        if type(requires) is tuple and len(requires) < 2 and (not requires or 0 <= requires[0] < idx):
            deps = requires
        else:
            deps = _checked_deps(requires, idx)
        edges = len(self.pred_idx)
        try:
            # the arrays refuse what an Op would: non-integers, negatives, >= 2**64
            self.size.append(size)
            self.peer.append(stored_peer)
            self.tag.append(tag)
            self.cpu.append(cpu)
            self.kind.append(kind)
            if deps:
                self.pred_idx.extend(deps)
        except (OverflowError, TypeError):
            for column in (self.kind, self.size, self.peer, self.tag, self.cpu):
                del column[idx:]
            del self.pred_idx[edges:]
            checked_fields(kind, size, peer, tag, cpu)  # raises, naming the field
            raise
        self.pred_ptr.append(edges + len(deps))
        self._succ = None
        return idx

    def append_sendrecv(
        self, send_size: int, dst: int, recv_size: int, src: int, tag: int = 0, cpu: int = 0,
        requires: Iterable[int] = (),
    ) -> int:
        """Append one round, a send and a receive after ``requires`` and their join; return the join.

        The same three vertices, with the same checks, as ``append_op`` of the
        send and of the receive (both with ``requires``) and then of a
        zero-cost calc that requires the two, all on ``tag`` and ``cpu``.
        """
        idx = len(self.kind)
        if dst is None or src is None:
            raise ValueError(f"{'send' if dst is None else 'recv'} requires a peer rank")
        if type(requires) is tuple and len(requires) < 2 and (not requires or 0 <= requires[0] < idx):
            deps = requires
        else:
            deps = _checked_deps(requires, idx)
        edges = len(self.pred_idx)
        try:
            # fromlist appends all of a list or none of it
            self.size.fromlist([send_size, recv_size, 0])
            self.peer.fromlist([dst, src, 0])
            self.tag.fromlist([tag, tag, 0])
            self.cpu.fromlist([cpu, cpu, cpu])
            self.pred_idx.fromlist([*deps, *deps, idx, idx + 1])
        except (OverflowError, TypeError):
            for column in (self.size, self.peer, self.tag, self.cpu):
                del column[idx:]
            checked_fields(_SEND, send_size, dst, tag, cpu)  # raises, naming the field
            checked_fields(_RECV, recv_size, src, tag, cpu)
            raise
        self.kind.frombytes(_ROUND)
        after = edges + len(deps)
        self.pred_ptr.fromlist([after, after + len(deps), after + len(deps) + 2])
        self._succ = None
        return idx + 2

    def add_op(self, op: Op, requires: Iterable[int] = ()) -> int:
        """Append ``op`` and return its vertex index.

        ``requires`` lists vertex indices that must complete before ``op``
        may start (any iterable of integers).  Indices must refer to
        already-added vertices, which keeps the graph acyclic by
        construction.  The op's fields are copied into the columns; ``op``
        itself is not kept.
        """
        return self.append_op(op.kind, op.size, op.peer, op.tag, op.cpu, requires)

    def extend(
        self,
        kind: object,
        size: object,
        peer: object,
        tag: object,
        cpu: object,
        pred_ptr: object,
        pred_idx: object,
    ) -> int:
        """Append a block of vertices given as whole columns; return its first index.

        The column form of :meth:`append_op`, with the same checks at array
        speed.  ``pred_ptr`` / ``pred_idx`` is the block's dependency CSR
        with indices *relative to the block* (a vertex of the block can only
        require earlier vertices of the block).
        """
        ptr = np.asarray(pred_ptr, dtype=np.int64)
        n = len(ptr) - 1
        if n < 0 or ptr[0] != 0 or ptr[-1] != len(pred_idx):
            raise ValueError("pred_ptr must rise from 0 to len(pred_idx), one entry per vertex and one more")
        return self._append_columns(
            *_checked_columns(kind, size, peer, tag, cpu, np.diff(ptr), pred_idx, np.arange(n))
        )

    def _append_columns(
        self,
        kind: np.ndarray,
        size: np.ndarray,
        peer: np.ndarray,
        tag: np.ndarray,
        cpu: np.ndarray,
        degree: np.ndarray,
        dep: np.ndarray,
    ) -> int:
        """Append columns :func:`_checked_columns` has passed; return the first new index."""
        base = len(self.kind)
        edges = len(self.pred_idx)
        self.kind.frombytes(kind.tobytes())
        self.size.frombytes(size.tobytes())
        self.peer.frombytes(peer.tobytes())
        self.tag.frombytes(tag.tobytes())
        self.cpu.frombytes(cpu.tobytes())
        self.pred_ptr.frombytes((np.cumsum(degree) + edges).tobytes())
        self.pred_idx.frombytes((dep + base).tobytes())
        self._succ = None
        return base

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(kind, size, peer, tag, cpu)`` as read-only numpy views of the columns (no copy).

        Drop the views before the rank grows again: an ``array`` that exports
        a buffer refuses to resize.
        """
        return (
            _read_only(self.kind, np.uint8),
            _read_only(self.size, np.uint64),
            _read_only(self.peer, np.uint64),
            _read_only(self.tag, np.uint64),
            _read_only(self.cpu, np.uint64),
        )

    def pred_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pred_ptr, pred_idx)`` as read-only numpy views (no copy; see :meth:`columns`)."""
        return _read_only(self.pred_ptr, np.int64), _read_only(self.pred_idx, np.int64)

    def succ_csr(self) -> Tuple[array, array]:
        """Successor CSR ``(succ_ptr, succ_idx)``, cached until the rank changes.

        Vertex ``v`` unlocks ``succ_idx[succ_ptr[v]:succ_ptr[v + 1]]``, in
        ascending order: the predecessor index with its pairs turned round,
        which is what the scheduler walks.
        """
        if self._succ is None:
            ptr, idx = self.pred_csr()
            succ_ptr, succ_idx = csr_from_edges(len(self.kind), idx, edge_owners(np.diff(ptr)))
            self._succ = _column("q", succ_ptr), _column("q", succ_idx)
        return self._succ

    def successors(self) -> List[List[int]]:
        """Return successor adjacency lists (built from :meth:`succ_csr`)."""
        ptr, idx = (column.tolist() for column in self.succ_csr())
        return [idx[a:b] for a, b in zip(ptr, ptr[1:])]

    def in_degrees(self) -> List[int]:
        """Return the in-degree (number of unmet dependencies) of each vertex."""
        return np.diff(self.pred_csr()[0]).tolist()

    def roots(self) -> List[int]:
        """Vertices with no dependencies (eligible to start at time zero)."""
        return np.flatnonzero(np.diff(self.pred_csr()[0]) == 0).tolist()

    def leaves(self) -> List[int]:
        """Vertices with no successors."""
        return np.flatnonzero(np.diff(np.frombuffer(self.succ_csr()[0], dtype=np.int64)) == 0).tolist()

    def _total(self, kind: OpType) -> int:
        kinds, sizes = self.columns()[:2]
        return exact_sum(sizes[kinds == kind])

    def total_bytes_sent(self) -> int:
        """Sum of sizes over all send ops."""
        return self._total(_SEND)

    def total_bytes_received(self) -> int:
        """Sum of sizes over all recv ops."""
        return self._total(_RECV)

    def total_calc_ns(self) -> int:
        """Sum of calc durations (nanoseconds)."""
        return self._total(_CALC)

    def compute_streams(self) -> List[int]:
        """Sorted list of distinct compute stream ids used by this rank."""
        return np.unique(self.columns()[4]).tolist()

    def critical_path_ns(self) -> int:
        """Length (in ns of calc cost) of the longest calc-weighted path.

        Communication ops are treated as zero-cost; this is a lower bound on
        the rank's completion time used by analytic sanity checks and tests.
        """
        dist: List[int] = []
        for kind, size, deps in zip(self.kind, self.size, self._pred_rows()):
            base = max([dist[p] for p in deps], default=0)
            dist.append(base + size if kind == _CALC else base)
        return max(dist, default=0)

    def __repr__(self) -> str:
        return f"RankSchedule(rank={self.rank}, ops={len(self.kind)})"


class GoalSchedule:
    """A complete GOAL program: one :class:`RankSchedule` per rank.

    Parameters
    ----------
    num_ranks:
        Number of ranks.  Rank ids are ``0 .. num_ranks - 1``.
    name:
        Optional human-readable name (propagated to trace files and reports).
    """

    def __init__(self, num_ranks: int, name: str = "goal") -> None:
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        self.name = name
        self.ranks: List[RankSchedule] = [RankSchedule(r) for r in range(num_ranks)]

    @classmethod
    def from_ranks(cls, ranks: Sequence[RankSchedule], name: str = "goal") -> "GoalSchedule":
        """The schedule made of ``ranks`` (kept, not copied), rank ``r`` at index ``r``.

        What both decoders return: each creates a rank when its input reaches
        it, so a blob or a text that declares more ranks than it holds fails
        before they are all allocated.
        """
        if not ranks:
            raise ValueError("num_ranks must be positive, got 0")
        for index, rank in enumerate(ranks):
            if rank.rank != index:
                raise ValueError(f"rank {rank.rank} given at index {index}")
        schedule = cls.__new__(cls)
        schedule.name = name
        schedule.ranks = list(ranks)
        return schedule

    # -- accessors ----------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    def __getitem__(self, rank: int) -> RankSchedule:
        return self.ranks[rank]

    def __iter__(self) -> Iterator[RankSchedule]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    # -- statistics -----------------------------------------------------------
    def num_ops(self) -> int:
        """Total number of vertices across all ranks."""
        return sum(len(r) for r in self.ranks)

    def num_edges(self) -> int:
        """Total number of dependency edges across all ranks."""
        return sum(len(r.pred_idx) for r in self.ranks)

    def total_bytes(self) -> int:
        """Total bytes sent across all ranks."""
        return sum(r.total_bytes_sent() for r in self.ranks)

    def total_calc_ns(self) -> int:
        """Total computation time (ns) across all ranks."""
        return sum(r.total_calc_ns() for r in self.ranks)

    def op_counts(self) -> Dict[str, int]:
        """Return ``{"send": n, "recv": n, "calc": n}`` counts."""
        totals = np.zeros(3, dtype=np.int64)
        for r in self.ranks:
            totals += np.bincount(r.columns()[0], minlength=3)
        return {kind.short(): int(totals[kind]) for kind in _KINDS}

    def summary(self) -> Dict[str, object]:
        """Return a dictionary of headline statistics for reports."""
        counts = self.op_counts()
        return {
            "name": self.name,
            "num_ranks": self.num_ranks,
            "num_ops": self.num_ops(),
            "num_edges": self.num_edges(),
            "sends": counts["send"],
            "recvs": counts["recv"],
            "calcs": counts["calc"],
            "total_bytes": self.total_bytes(),
            "total_calc_ns": self.total_calc_ns(),
        }

    def __repr__(self) -> str:
        return (
            f"GoalSchedule(name={self.name!r}, ranks={self.num_ranks}, "
            f"ops={self.num_ops()})"
        )
