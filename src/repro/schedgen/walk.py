"""The trace walk shared by the MPI and NCCL schedule generators.

Schedgen turns an MPI trace (paper §3.1.1) and an NCCL trace (§3.1.2,
Stages 2–3) into GOAL the same way, and :func:`walk` is that one loop.  A
:class:`Lane` — one MPI rank, or one CUDA stream of one GPU — runs through
its records in order: the gap between one record's end and the next one's
start becomes a ``calc`` (see :func:`scaled_ns`), any other record is handed
to the front end's ``emit``, and a collective stops the lane.  Once every
member of the collective's communicator has stopped at the same instance
(same communicator, sequence number and call), the front end's
``decompose`` emits it on a fresh
:class:`~repro.collectives.context.CollectiveContext` and the lanes resume.

Order is part of the output: vertex ids and tags follow it, and the streams
of one GPU share their rank's id space.  Each round first advances the
released lanes in lane order, then emits the instances that became
complete, in sorted ``(comm, seq, call)`` order.  Arrivals are kept per
instance as lanes stop, so a round only looks at the instances it touched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives.context import CollectiveContext, DepMap, TagAllocator, project_groups
from repro.goal.builder import GoalBuilder, RankBuilder


class TraceMismatchError(RuntimeError):
    """The trace's collectives cannot be reconciled across its lanes.

    Raised when lanes reach collectives in an order that would deadlock a
    real run, when a collective names an unknown communicator, or when the
    members of one collective instance disagree on what it is (its size, or
    an MPI root), or when an MPI root is outside its communicator.
    """


@dataclass
class Lane:
    """One record list walked in order: an MPI rank, or one stream of a GPU.

    ``cpu`` is the compute stream its vertices go on; ``last`` the handle
    its next vertex must wait on (``None``: nothing yet).
    """

    rank: int
    cpu: int
    records: Sequence[Any]
    index: int = 0
    last: Optional[int] = None
    prev_end_ns: int = 0


def scaled_ns(ns: int, compute_scale: float) -> int:
    """Host time ``ns`` (negative counts as 0) retargeted by ``compute_scale``."""
    return int(round(max(0, ns) * compute_scale))


def walk(
    builder: GoalBuilder,
    lanes: List[Lane],
    communicators: Dict[int, List[int]],
    compute_scale: float,
    collective: Callable[[Any], Optional[Tuple[str, Dict[str, Any]]]],
    emit: Callable[[RankBuilder, Lane, Any, Tuple[int, ...]], int],
    decompose: Callable[[CollectiveContext, str, Any, DepMap], DepMap],
    groups: Optional[List[List[int]]] = None,
    reduce_ns_per_byte: float = 0.0,
) -> None:
    """Walk every lane to its end, emitting the schedule into ``builder``.

    Parameters
    ----------
    lanes:
        In lane order (by rank, then stream).
    communicators:
        ``{comm id -> member ranks}``, in communicator order.
    collective:
        ``collective(record)`` is ``None`` for a record its lane emits, else
        ``(call, {name: value})``: the values every member must agree on.
    emit:
        ``emit(rank_builder, lane, record, requires)`` emits a
        non-collective record after ``requires`` and returns its last handle
        (of the lane it may read ``rank`` and ``cpu``).
    decompose:
        ``decompose(ctx, call, record, deps)`` emits one collective instance
        (``record`` is its first member's) and returns the exits.
    groups:
        Locality partition of the global ranks, projected onto each
        communicator (``None``: no grouping).
    """
    tags = TagAllocator()
    arrived: Dict[Tuple[int, int, str], List[Lane]] = {}
    released = lanes
    while released:
        touched = set()
        for lane in released:
            key = _advance(builder.rank(lane.rank), lane, compute_scale, collective, emit)
            if key is not None:
                arrived.setdefault(key, []).append(lane)
                touched.add(key)
        released = []
        for key in sorted(touched):
            comm, seq, call = key
            waiting = arrived[key]
            members = communicators.get(comm)
            if members is None:
                raise TraceMismatchError(f"{call} (comm {comm}, seq {seq}): unknown communicator {comm}")
            if len(waiting) != len(members) or sorted(l.rank for l in waiting) != sorted(members):
                continue  # not everyone has arrived yet
            del arrived[key]
            by_rank = {lane.rank: lane for lane in waiting}
            views: Dict[Tuple, List[int]] = {}
            for r in members:
                lane = by_rank[r]
                views.setdefault(tuple(collective(lane.records[lane.index])[1].items()), []).append(r)
            if len(views) > 1:
                raise TraceMismatchError(f"{call} (comm {comm}, seq {seq}): members disagree: " + "; ".join(
                    " ".join(f"{name}={value}" for name, value in view) + f" on ranks {ranks}"
                    for view, ranks in views.items()
                ))
            first = by_rank[members[0]]
            ctx = CollectiveContext(
                builder, members, tags=tags, reduce_ns_per_byte=reduce_ns_per_byte, cpu=first.cpu,
                groups=None if groups is None else project_groups(groups, members),
            )
            deps = {r: by_rank[r].last for r in members if by_rank[r].last is not None}
            exits = decompose(ctx, call, first.records[first.index], deps)
            for lane in waiting:
                lane.last = exits.get(lane.rank, lane.last)
                lane.prev_end_ns = lane.records[lane.index].end_ns
                lane.index += 1
            released.extend(waiting)
        released.sort(key=lambda lane: (lane.rank, lane.cpu))
    if arrived:  # every unfinished lane waits at a collective
        stuck = "; ".join(
            f"{call} (comm {comm}, seq {seq}) reached by ranks "
            f"{sorted(l.rank for l in arrived[comm, seq, call])} of {communicators[comm]}"
            for comm, seq, call in sorted(arrived)[:10]
        )
        raise TraceMismatchError(f"collectives do not line up across ranks: {stuck}")


def _advance(rb: RankBuilder, lane: Lane, compute_scale: float, collective, emit) -> Optional[Tuple[int, int, str]]:
    """Emit ``lane``'s records up to its next collective; return that instance's key."""
    records, index, last, prev_end, cpu = lane.records, lane.index, lane.last, lane.prev_end_ns, lane.cpu
    key = None
    while index < len(records):
        record = records[index]
        gap = scaled_ns(record.start_ns - prev_end, compute_scale)
        if gap > 0:
            last = rb.calc(gap, cpu, () if last is None else (last,))
        what = collective(record)
        if what is not None:
            key = (record.comm, record.seq, what[0])
            break
        last = emit(rb, lane, record, () if last is None else (last,))
        prev_end = record.end_ns
        index += 1
    lane.index, lane.last, lane.prev_end_ns = index, last, prev_end
    return key
