"""Rank-level and program-level GOAL schedules.

A :class:`RankSchedule` is a dependency DAG over :class:`~repro.goal.ops.Op`
vertices for one rank (one network endpoint: an MPI rank, a node, or a GPU,
depending on the granularity chosen during GOAL generation).  A
:class:`GoalSchedule` is the ordered collection of rank schedules that makes
up a whole simulated program.

Vertices are addressed by their integer index within the rank (insertion
order); dependencies are stored as predecessor lists.  Successor lists and
in-degrees — the representation the scheduler actually consumes — are derived
lazily and cached.
"""
from __future__ import annotations

import contextlib
import gc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.goal.ops import Op, OpType


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector while a decoder builds a schedule.

    A decoder allocates two containers per op (the :class:`Op`, its
    predecessor list), frees none and creates no cycle, so every collection
    its allocations trigger scans the heap and finds nothing -- and the full
    ones scan whatever else the process holds.  Measured with three 58 880-op
    schedules alive, those scans were about half of parse and decode time.
    The previous state is restored on exit (also when the decoder raises).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class RankSchedule:
    """Dependency DAG of GOAL ops for a single rank.

    Parameters
    ----------
    rank:
        The rank id this schedule belongs to.

    Notes
    -----
    The class maintains, per vertex ``i``:

    * ``ops[i]`` — the :class:`Op`,
    * ``preds[i]`` — sorted list of predecessor vertex indices
      (``i requires p`` for every ``p`` in ``preds[i]``).

    Successors and in-degrees are computed on demand by :meth:`successors`
    and :meth:`in_degrees` and invalidated by any mutation.
    """

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        self.rank = int(rank)
        self.ops: List[Op] = []
        self.preds: List[List[int]] = []
        self._succs: Optional[List[List[int]]] = None
        self._labels: Dict[str, int] = {}

    # -- construction ------------------------------------------------------
    def add_op(self, op: Op, requires: Iterable[int] = ()) -> int:
        """Append ``op`` and return its vertex index.

        ``requires`` lists vertex indices that must complete before ``op``
        may start.  Indices must refer to already-added vertices, which keeps
        the graph acyclic by construction.
        """
        idx = len(self.ops)
        deps: List[int] = []
        if requires:
            deps = sorted(set(requires))
            if deps and (deps[0] < 0 or deps[-1] >= idx):
                bad = deps[0] if deps[0] < 0 else deps[-1]
                raise ValueError(
                    f"dependency {bad} of new vertex {idx} is out of range "
                    f"(must reference an earlier vertex)"
                )
        self.ops.append(op)
        self.preds.append(deps)
        if op.label is not None:
            if op.label in self._labels:
                raise ValueError(f"duplicate label {op.label!r} in rank {self.rank}")
            self._labels[op.label] = idx
        self._succs = None
        return idx

    def add_dependency(self, vertex: int, requires: int) -> None:
        """Add an edge ``requires -> vertex`` after the fact.

        Only backward edges (``requires < vertex``) are allowed so the DAG
        stays acyclic by construction.
        """
        n = len(self.ops)
        if not (0 <= vertex < n) or not (0 <= requires < n):
            raise ValueError(f"vertex index out of range (n={n})")
        if requires == vertex:
            raise ValueError("a vertex cannot require itself")
        if requires > vertex:
            raise ValueError(
                f"dependency {requires} -> {vertex} would point forward; "
                "GOAL schedules only allow edges from earlier to later vertices"
            )
        if requires not in self.preds[vertex]:
            self.preds[vertex].append(requires)
            self.preds[vertex].sort()
            self._succs = None

    def vertex_by_label(self, label: str) -> int:
        """Return the vertex index for ``label``; raises ``KeyError`` if absent."""
        return self._labels[label]

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def successors(self) -> List[List[int]]:
        """Return (cached) successor adjacency lists."""
        if self._succs is None:
            succs: List[List[int]] = [[] for _ in self.ops]
            for v, deps in enumerate(self.preds):
                for d in deps:
                    succs[d].append(v)
            self._succs = succs
        return self._succs

    def in_degrees(self) -> List[int]:
        """Return the in-degree (number of unmet dependencies) of each vertex."""
        return [len(deps) for deps in self.preds]

    def roots(self) -> List[int]:
        """Vertices with no dependencies (eligible to start at time zero)."""
        return [v for v, deps in enumerate(self.preds) if not deps]

    def leaves(self) -> List[int]:
        """Vertices with no successors."""
        succs = self.successors()
        return [v for v, s in enumerate(succs) if not s]

    def comm_ops(self) -> Iterator[Tuple[int, Op]]:
        """Iterate ``(vertex, op)`` over send/recv vertices."""
        for v, op in enumerate(self.ops):
            if op.is_comm:
                yield v, op

    def total_bytes_sent(self) -> int:
        """Sum of sizes over all send ops."""
        return sum(op.size for op in self.ops if op.is_send)

    def total_bytes_received(self) -> int:
        """Sum of sizes over all recv ops."""
        return sum(op.size for op in self.ops if op.is_recv)

    def total_calc_ns(self) -> int:
        """Sum of calc durations (nanoseconds)."""
        return sum(op.size for op in self.ops if op.is_calc)

    def compute_streams(self) -> List[int]:
        """Sorted list of distinct compute stream ids used by this rank."""
        return sorted({op.cpu for op in self.ops})

    def topological_order(self) -> List[int]:
        """Return vertices in a valid topological order.

        Because :meth:`add_op` only allows backward dependencies, insertion
        order is already topological; this is returned directly.
        """
        return list(range(len(self.ops)))

    def critical_path_ns(self) -> int:
        """Length (in ns of calc cost) of the longest calc-weighted path.

        Communication ops are treated as zero-cost; this is a lower bound on
        the rank's completion time used by analytic sanity checks and tests.
        """
        n = len(self.ops)
        dist = [0] * n
        for v in range(n):
            base = max((dist[p] for p in self.preds[v]), default=0)
            cost = self.ops[v].size if self.ops[v].is_calc else 0
            dist[v] = base + cost
        return max(dist, default=0)

    def copy(self) -> "RankSchedule":
        """Deep-copy this rank schedule (ops are copied; labels preserved)."""
        return RankSchedule._from_parts(
            self.rank,
            [op.copy() for op in self.ops],
            [list(p) for p in self.preds],
            dict(self._labels),
        )

    @classmethod
    def _from_parts(
        cls, rank: int, ops: List[Op], preds: List[List[int]], labels: Dict[str, int]
    ) -> "RankSchedule":
        """Adopt already-checked lists as rank ``rank`` (no copy, no validation).

        The trusted entry for the two decoders and :meth:`copy`.  The caller
        guarantees what :meth:`add_op` would have enforced: ``preds[i]`` is
        sorted, duplicate-free and references only vertices ``< i``, and
        ``labels`` maps every non-``None`` ``ops[i].label`` to ``i``.
        """
        new = cls(rank)
        new.ops = ops
        new.preds = preds
        new._labels = labels
        return new

    def __repr__(self) -> str:
        return f"RankSchedule(rank={self.rank}, ops={len(self.ops)})"


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
        return sum(len(deps) for r in self.ranks for deps in r.preds)

    def total_bytes(self) -> int:
        """Total bytes sent across all ranks."""
        return sum(r.total_bytes_sent() for r in self.ranks)

    def total_calc_ns(self) -> int:
        """Total computation time (ns) across all ranks."""
        return sum(r.total_calc_ns() for r in self.ranks)

    def op_counts(self) -> Dict[str, int]:
        """Return ``{"send": n, "recv": n, "calc": n}`` counts."""
        counts = {"send": 0, "recv": 0, "calc": 0}
        for r in self.ranks:
            for op in r.ops:
                counts[op.kind.short()] += 1
        return counts

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

    def copy(self) -> "GoalSchedule":
        """Deep-copy the whole schedule."""
        new = GoalSchedule(self.num_ranks, name=self.name)
        new.ranks = [r.copy() for r in self.ranks]
        return new

    def __repr__(self) -> str:
        return (
            f"GoalSchedule(name={self.name!r}, ranks={self.num_ranks}, "
            f"ops={self.num_ops()})"
        )
