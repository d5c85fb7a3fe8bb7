"""Rank remapping and schedule fusion for multi-job / multi-tenant scenarios.

The paper (§3.2) models several applications sharing one cluster on top of
GOAL.  :func:`concatenate_schedules` is the one merge: it remaps each
application's ranks onto the nodes its placement names and emits one combined
schedule.  This module is also the one place that says what a job owns:

* **Tags**: job *i* of a merge owns the tag window
  ``[i * TAG_STRIDE, (i + 1) * TAG_STRIDE)``, so jobs can never match each
  other's messages.  The window keeps jobs apart; it is not what attributes
  traffic to a job (that is the op group of the message's send op, see
  :class:`~repro.network.backend.GroupStats`).  The window is wide (2^32) because
  MPI tracers encode communicator ids in the high tag bits; a merged job with
  a send/recv tag at or past it is one ``ValueError``.
* **Compute streams**: where a node hosts several applications, their
  per-rank DAGs are fused into a single DAG on that node, application *i* on
  streams ``i * STREAM_STRIDE`` and up (64 each), so they overlap instead of
  serialising.  Applications on *disjoint* nodes keep their own streams.

:func:`remap_ranks` is the one-application relabel (no job, no window check).
Real clusters do not start every job at t=0: :func:`delay_schedule` realises
an arrival time (ns) inside the GOAL model itself — a single ``calc arrival``
root is prepended to every non-empty rank and every former root is made to
depend on it, so no op of the job can issue before its arrival regardless of
backend.  The co-tenancy engine (:mod:`repro.cluster`) delays each job this
way before merging.  An arrival of zero is the identity (the schedule is
reused untouched), which keeps single-job co-tenant runs bit-identical to the
plain simulation path.
"""
from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.goal.ops import _CALC, checked_value
from repro.goal.schedule import GoalSchedule, RankSchedule


#: Tag window of one merged job: job *i* sends and receives on tags
#: ``i * TAG_STRIDE`` and up.
TAG_STRIDE = 1 << 32

#: Compute-stream window of one job fused onto a node another job shares.
STREAM_STRIDE = 64


def _place(
    rank: RankSchedule, onto: RankSchedule, targets: np.ndarray, job: int, fused: bool
) -> None:
    """Append ``rank``'s vertices to ``onto``: peers looked up in ``targets``,
    tags moved into job ``job``'s window (streams too, if ``fused``),
    dependencies kept (relative to the block)."""
    kind, size, peer, tag, cpu = rank.columns()
    comm = kind != _CALC
    if peer.size and int(peer.max()) >= len(targets):
        raise ValueError(
            f"rank {rank.rank} addresses peer {int(peer.max())}, outside the "
            f"schedule's {len(targets)} ranks"
        )
    if job:
        tag = np.where(comm, tag + np.uint64(job * TAG_STRIDE), tag)
        if fused:
            cpu = cpu + np.uint64(job * STREAM_STRIDE)
    onto.extend(
        kind, size, np.where(comm, targets[peer.astype(np.intp)], 0), tag, cpu, *rank.pred_csr()
    )


def _check_windows(schedules: Sequence[GoalSchedule], fused: bool) -> None:
    """Refuse a send/recv tag past the job tag window and, when jobs share a
    node, a compute stream past the job stream window."""
    for sched in schedules:
        for rank in sched.ranks:
            kind, _, _, tag, cpu = rank.columns()
            wide = tag[(kind != _CALC) & (tag >= TAG_STRIDE)]
            if wide.size:
                raise ValueError(
                    f"schedule {sched.name!r} uses tag {int(wide[0])} >= TAG_STRIDE "
                    f"{TAG_STRIDE}: past its job's window it would match another "
                    f"job's messages"
                )
            if fused and (cpu >= STREAM_STRIDE).any():
                raise ValueError(
                    f"schedule {sched.name!r} uses compute stream "
                    f"{int(cpu[cpu >= STREAM_STRIDE][0])} >= STREAM_STRIDE "
                    f"{STREAM_STRIDE}: on a shared node it would run on another "
                    f"job's streams"
                )


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
    return _merge([schedule], [mapping], num_ranks, name or schedule.name, jobs=False)


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
        out.ranks[rank.rank].extend(
            np.concatenate(([_CALC], kind)),
            np.concatenate((delay, size)),
            np.concatenate((zero, peer)),
            np.concatenate((zero, tag)),
            np.concatenate((zero, cpu)),
            new_ptr,
            new_idx,
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
) -> GoalSchedule:
    """Combine several applications (jobs) into one multi-job schedule.

    Each application's ranks go to the nodes its placement names.  When no
    node hosts two applications, the result is their disjoint union.  When
    some node does, the applications' fragments on it are fused: appended in
    application order with no cross-application edges, and application ``i``
    moved onto compute streams ``i * STREAM_STRIDE`` and up so the fragments
    overlap instead of serialising.  Application ``i``'s tags move into its
    window ``i * TAG_STRIDE`` and up.  A send/recv tag of any application at
    or past ``TAG_STRIDE``, or (when nodes are shared) a compute stream at or
    past ``STREAM_STRIDE``, is one ``ValueError`` naming the schedule.

    Parameters
    ----------
    schedules:
        The applications to combine, in job (= tag window) order.
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
    """
    return _merge(schedules, placements, num_ranks, name, jobs=True)


def _merge(
    schedules: Sequence[GoalSchedule],
    placements: Optional[Sequence[Mapping[int, int]]],
    num_ranks: Optional[int],
    name: str,
    jobs: bool,
) -> GoalSchedule:
    """The merge itself; ``jobs`` checks the job windows (off for a relabel)."""
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
    if jobs:
        _check_windows(schedules, fused)

    merged = GoalSchedule(total, name=name)
    for job, (sched, on) in enumerate(zip(schedules, nodes)):
        lookup = np.array(on, dtype=np.uint64)
        for rank in sched.ranks:
            _place(rank, merged.ranks[on[rank.rank]], lookup, job, fused)
    return merged
