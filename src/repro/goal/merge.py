"""Rank remapping and schedule fusion for multi-job / multi-tenant scenarios.

The paper (§3.2) models several applications sharing one cluster on top of
GOAL.  :func:`concatenate_schedules` is the one merge: it remaps each
application's ranks onto the nodes its placement names and emits one combined
schedule.

* **Multi-job**: applications on *disjoint* sets of nodes keep their own
  nodes; the result is the union of the remapped schedules.
* **Multi-tenancy**: where a node hosts several applications, their per-rank
  DAGs are fused into a single DAG on that node, with each application's ops
  on its own range of compute streams so they can overlap.

:func:`remap_ranks` is the one-application case.  Real clusters do not start
every job at t=0: :func:`delay_schedule` realises an arrival time (ns) inside
the GOAL model itself — a single ``calc arrival`` root is prepended to every
non-empty rank and every former root is made to depend on it, so no op of the
job can issue before its arrival regardless of backend.  The co-tenancy engine
(:mod:`repro.cluster`) delays each job this way before merging.  An arrival of
zero is the identity (the schedule is reused untouched), which keeps
single-job co-tenant runs bit-identical to the plain simulation path.
"""
from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.goal.ops import _CALC, VALUE_LIMIT, checked_value
from repro.goal.schedule import GoalSchedule, RankSchedule


def _place(
    rank: RankSchedule,
    onto: RankSchedule,
    targets: np.ndarray,
    tag_offset: int = 0,
    cpu_offset: int = 0,
) -> None:
    """Append ``rank``'s vertices to ``onto``: peers looked up in ``targets``, tags and
    streams shifted, labels dropped, dependencies kept (relative to the block)."""
    kind, size, peer, tag, cpu = rank.columns()
    comm = kind != _CALC
    if peer.size and int(peer.max()) >= len(targets):
        raise ValueError(
            f"rank {rank.rank} addresses peer {int(peer.max())}, outside the "
            f"schedule's {len(targets)} ranks"
        )
    onto.extend(
        kind,
        size,
        np.where(comm, targets[peer.astype(np.intp)], 0),
        _shifted("tag", tag, tag_offset, comm),
        _shifted("cpu (compute stream)", cpu, cpu_offset),
        *rank.pred_csr(),
    )


def _shifted(what: str, values: np.ndarray, offset: int, where: Optional[np.ndarray] = None) -> np.ndarray:
    """``values + offset`` (only ``where`` given), refusing a result past 64 bits."""
    moved = values if where is None else values[where]
    if not offset or not moved.size:
        return values
    if int(moved.max()) + offset >= VALUE_LIMIT:
        raise ValueError(f"{what} {int(moved.max())} + {offset} does not fit 64 bits")
    shifted = values + np.uint64(offset)
    return shifted if where is None else np.where(where, shifted, values)


def remap_ranks(
    schedule: GoalSchedule,
    mapping: Mapping[int, int],
    num_ranks: Optional[int] = None,
    name: Optional[str] = None,
) -> GoalSchedule:
    """Return a copy of ``schedule`` with every rank id translated via ``mapping``.

    Parameters
    ----------
    schedule:
        The source schedule (ranks ``0 .. schedule.num_ranks - 1``).
    mapping:
        Old rank -> new rank.  Must cover every source rank and be injective.
    num_ranks:
        Number of ranks in the output schedule; defaults to
        ``max(mapping.values()) + 1``.  Ranks not targeted by the mapping are
        left empty (no ops), which models idle nodes.
    name:
        Name of the resulting schedule.
    """
    return concatenate_schedules(
        [schedule], [mapping], num_ranks=num_ranks, name=name or schedule.name
    )


def delay_schedule(schedule: GoalSchedule, delay_ns: int) -> GoalSchedule:
    """Return a copy of ``schedule`` whose every op starts at least ``delay_ns`` late.

    Models a job *arriving* at ``delay_ns``: each non-empty rank gets one
    ``calc delay_ns`` vertex prepended, and every former root is made to
    depend on it.  Since every vertex of a DAG transitively depends on some
    root, nothing of the job can issue before its arrival on any backend.

    ``delay_ns == 0`` returns ``schedule`` itself (identity — no extra
    vertices), so zero-arrival co-tenant composition stays bit-identical to
    the undelayed schedule.
    """
    if delay_ns < 0:
        raise ValueError(f"delay_ns must be non-negative, got {delay_ns}")
    if delay_ns == 0:
        return schedule
    delay = np.array([checked_value("delay_ns", delay_ns)], dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint64)
    out = GoalSchedule(schedule.num_ranks, name=schedule.name)
    for rank in schedule.ranks:
        if not len(rank):
            continue
        kind, size, peer, tag, cpu = rank.columns()
        ptr, idx = rank.pred_csr()
        # Vertex 0 is the delay, every original index shifts by one past it,
        # and a former root (empty row) gets the one-entry row [0].
        degree = np.diff(ptr)
        new_ptr = np.concatenate(([0, 0], np.cumsum(np.maximum(degree, 1))))
        new_idx = np.zeros(new_ptr[-1], dtype=np.int64)
        kept = np.ones(len(new_idx), dtype=bool)
        kept[new_ptr[1:-1][degree == 0]] = False
        new_idx[kept] = idx + 1
        # labels survive (only the unlabeled delay vertex is new); the
        # multi-job merge strips labels itself when composing
        out.ranks[rank.rank].extend(
            np.concatenate(([_CALC], kind)),
            np.concatenate((delay, size)),
            np.concatenate((zero, peer)),
            np.concatenate((zero, tag)),
            np.concatenate((zero, cpu)),
            new_ptr,
            new_idx,
            {label: vertex + 1 for label, vertex in rank.labels.items()},
        )
    return out


def _nodes(schedule: GoalSchedule, placement: Mapping[int, int]) -> List[int]:
    """``placement`` over ``schedule``'s ranks, refusing a missing rank or two
    ranks on one node."""
    nodes: List[int] = []
    rank_on: Dict[int, int] = {}
    for r in range(schedule.num_ranks):
        if r not in placement:
            raise ValueError(f"placement missing rank {r} of schedule {schedule.name!r}")
        node = placement[r]
        if node in rank_on:
            raise ValueError(
                f"placement of schedule {schedule.name!r} puts ranks {rank_on[node]} "
                f"and {r} on node {node}"
            )
        rank_on[node] = r
        nodes.append(node)
    return nodes


def concatenate_schedules(
    schedules: Sequence[GoalSchedule],
    placements: Optional[Sequence[Mapping[int, int]]] = None,
    num_ranks: Optional[int] = None,
    name: str = "multi-job",
    tag_stride: int = 1 << 20,
    stream_stride: int = 64,
) -> GoalSchedule:
    """Combine several applications into one multi-job schedule.

    Each application's ranks go to the nodes its placement names.  When no
    node hosts two applications, the result is their disjoint union.  When
    some node does, the applications' fragments on it are fused: appended in
    application order with no cross-application edges, and application ``i``
    moved onto compute streams ``i * stream_stride`` and up so the fragments
    overlap instead of serialising.

    Parameters
    ----------
    schedules:
        The applications to combine.
    placements:
        One mapping per application assigning its ranks to global node ids;
        each must be injective.  When omitted, applications are packed
        back-to-back: application ``i`` occupies the node range directly
        after application ``i - 1``.
    num_ranks:
        Total nodes in the combined schedule (inferred if omitted); every
        placed node must lie in ``0 .. num_ranks - 1``.
    name:
        Name of the combined schedule.
    tag_stride:
        Tag offset applied per application to keep their message spaces
        disjoint.  Must exceed the largest tag used by any application.
    stream_stride:
        Compute-stream offset between applications when some node hosts
        two; it must exceed every compute stream an application uses.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    if placements is None:
        placements = []
        base = 0
        for sched in schedules:
            placements.append({r: base + r for r in range(sched.num_ranks)})
            base += sched.num_ranks
    if len(placements) != len(schedules):
        raise ValueError("need exactly one placement per schedule")

    nodes = [_nodes(sched, placement) for sched, placement in zip(schedules, placements)]
    placed = [node for job in nodes for node in job]
    total = num_ranks if num_ranks is not None else max(placed, default=-1) + 1
    for sched, job in zip(schedules, nodes):
        for r, node in enumerate(job):
            if not 0 <= node < total:
                raise ValueError(
                    f"placement of schedule {sched.name!r} puts rank {r} on node "
                    f"{node}, outside the {total} nodes 0 .. {total - 1}"
                )
    fused = len(set(placed)) < len(placed)
    if fused:
        for sched in schedules:
            for rank in sched.ranks:
                streams = rank.columns()[4]
                if (streams >= stream_stride).any():
                    raise ValueError(
                        f"schedule {sched.name!r} uses compute stream "
                        f"{int(streams[streams >= stream_stride][0])} >= "
                        f"stream_stride {stream_stride}; increase stream_stride"
                    )

    merged = GoalSchedule(total, name=name)
    for job_idx, (sched, job) in enumerate(zip(schedules, nodes)):
        lookup = np.array(job, dtype=np.uint64)
        for rank in sched.ranks:
            _place(
                rank, merged.ranks[job[rank.rank]], lookup,
                tag_offset=job_idx * tag_stride,
                cpu_offset=job_idx * stream_stride if fused else 0,
            )
    return merged
