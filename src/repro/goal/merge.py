"""Rank remapping and schedule fusion for multi-job / multi-tenant scenarios.

The paper (§3.2) models two scenarios on top of GOAL:

* **Multi-job**: distinct applications occupy *disjoint* sets of nodes and run
  concurrently.  This only requires remapping each application's ranks onto
  its allocated nodes and emitting one combined schedule
  (:func:`concatenate_schedules` with a placement).
* **Multi-tenancy**: several applications *share* nodes.  Their per-rank DAGs
  are fused into a single DAG per shared node, with each tenant's ops placed
  on distinct compute streams separated by dummy vertices so they can overlap
  (:func:`merge_onto_shared_nodes`).

On top of the rank-offset composition both merge entry points accept
*arrival offsets*: real clusters do not start every job at t=0, so each
application may carry an arrival time (ns).  :func:`delay_schedule` realises
an arrival inside the GOAL model itself — a single ``calc arrival`` root is
prepended to every non-empty rank and every former root is made to depend on
it, so no op of the job can issue before its arrival regardless of backend.
An arrival of zero is the identity (the schedule is reused untouched), which
keeps single-job co-tenant runs bit-identical to the plain simulation path.
"""
from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.goal.ops import _CALC, VALUE_LIMIT, checked_value
from repro.goal.schedule import GoalSchedule, RankSchedule


def _targets(mapping: Mapping[int, int], num_ranks: int) -> np.ndarray:
    """``mapping`` over ranks ``0 .. num_ranks - 1`` as a lookup column."""
    return np.array([mapping[r] for r in range(num_ranks)], dtype=np.uint64)


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
    src_ranks = range(schedule.num_ranks)
    missing = [r for r in src_ranks if r not in mapping]
    if missing:
        raise ValueError(f"mapping does not cover ranks {missing}")
    targets = [mapping[r] for r in src_ranks]
    if len(set(targets)) != len(targets):
        raise ValueError("mapping is not injective (two ranks map to the same node)")
    inferred = max(targets) + 1
    out_ranks = num_ranks if num_ranks is not None else inferred
    if inferred > out_ranks:
        raise ValueError(
            f"mapping targets rank {inferred - 1} but output num_ranks is {out_ranks}"
        )

    merged = GoalSchedule(out_ranks, name=name or schedule.name)
    lookup = _targets(mapping, schedule.num_ranks)
    for rank in schedule.ranks:
        _place(rank, merged.ranks[mapping[rank.rank]], lookup)
    return merged


def relabel_tags(schedule: GoalSchedule, tag_offset: int) -> GoalSchedule:
    """Return a copy of ``schedule`` with ``tag_offset`` added to every message tag.

    Used before fusing multiple applications so their messages cannot be
    cross-matched even when they share (src, dst) pairs.
    """
    if tag_offset < 0:
        raise ValueError("tag_offset must be non-negative")
    out = schedule.copy()
    for rank in out.ranks:
        kind, _, _, tag, _ = rank.columns()
        tag[:] = _shifted("tag", tag, tag_offset, kind != _CALC)
    return out


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
        # multi-job merges strip labels themselves when composing
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


def _apply_arrivals(
    schedules: Sequence[GoalSchedule], arrivals: Optional[Sequence[int]]
) -> Sequence[GoalSchedule]:
    """Delay each schedule by its arrival offset (``None`` = all at t=0)."""
    if arrivals is None:
        return schedules
    if len(arrivals) != len(schedules):
        raise ValueError(
            f"need exactly one arrival per schedule "
            f"({len(arrivals)} arrivals for {len(schedules)} schedules)"
        )
    return [delay_schedule(sched, arr) for sched, arr in zip(schedules, arrivals)]


def concatenate_schedules(
    schedules: Sequence[GoalSchedule],
    placements: Optional[Sequence[Mapping[int, int]]] = None,
    num_ranks: Optional[int] = None,
    name: str = "multi-job",
    tag_stride: int = 1 << 20,
    arrivals: Optional[Sequence[int]] = None,
) -> GoalSchedule:
    """Combine several applications into one multi-job schedule.

    Each application keeps its own (disjoint) set of nodes.

    Parameters
    ----------
    schedules:
        The applications to combine.
    placements:
        One mapping per application assigning its ranks to global node ids.
        When omitted, applications are packed back-to-back: application ``i``
        occupies the node range directly after application ``i - 1``.
    num_ranks:
        Total nodes in the combined schedule (inferred if omitted).
    name:
        Name of the combined schedule.
    tag_stride:
        Tag offset applied per application to keep their message spaces
        disjoint.  Must exceed the largest tag used by any application.
    arrivals:
        Optional arrival time (ns) per application; each is applied via
        :func:`delay_schedule` before merging.  Zero is the identity.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    schedules = _apply_arrivals(schedules, arrivals)
    if placements is None:
        placements = []
        base = 0
        for sched in schedules:
            placements.append({r: base + r for r in range(sched.num_ranks)})
            base += sched.num_ranks
    if len(placements) != len(schedules):
        raise ValueError("need exactly one placement per schedule")

    all_targets: List[int] = []
    for sched, placement in zip(schedules, placements):
        for r in range(sched.num_ranks):
            if r not in placement:
                raise ValueError(f"placement missing rank {r} of schedule {sched.name!r}")
            all_targets.append(placement[r])
    if len(set(all_targets)) != len(all_targets):
        raise ValueError("placements overlap: multi-job placement requires disjoint node sets")
    total = num_ranks if num_ranks is not None else max(all_targets) + 1

    merged = GoalSchedule(total, name=name)
    for job_idx, (sched, placement) in enumerate(zip(schedules, placements)):
        offset = job_idx * tag_stride
        lookup = _targets(placement, sched.num_ranks)
        for rank in sched.ranks:
            dst_rank = merged.ranks[placement[rank.rank]]
            if len(dst_rank):
                raise ValueError(
                    f"node {placement[rank.rank]} already hosts another job; "
                    "use merge_onto_shared_nodes for multi-tenancy"
                )
            _place(rank, dst_rank, lookup, tag_offset=offset)
    return merged


def merge_onto_shared_nodes(
    schedules: Sequence[GoalSchedule],
    placements: Sequence[Mapping[int, int]],
    num_ranks: Optional[int] = None,
    name: str = "multi-tenant",
    tag_stride: int = 1 << 20,
    stream_stride: int = 64,
    arrivals: Optional[Sequence[int]] = None,
) -> GoalSchedule:
    """Fuse several applications that may *share* nodes (multi-tenancy).

    Every tenant's DAG fragment placed on a node is appended to that node's
    combined DAG.  To let tenants overlap (they are independent programs), the
    fragments are kept independent — no artificial cross-tenant edges — and
    each tenant's ops are shifted onto a disjoint range of compute streams
    (``tenant_index * stream_stride``).  Message tags are offset per tenant so
    that matching stays within a tenant.

    Parameters
    ----------
    schedules, placements, num_ranks, name, tag_stride:
        As for :func:`concatenate_schedules`, except placements may overlap.
    stream_stride:
        Compute-stream offset between tenants on a shared node; must exceed
        the number of streams any single tenant uses on one rank.
    arrivals:
        Optional arrival time (ns) per tenant, applied via
        :func:`delay_schedule` before fusing.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    schedules = _apply_arrivals(schedules, arrivals)
    if len(placements) != len(schedules):
        raise ValueError("need exactly one placement per schedule")

    max_target = -1
    for sched, placement in zip(schedules, placements):
        for r in range(sched.num_ranks):
            if r not in placement:
                raise ValueError(f"placement missing rank {r} of schedule {sched.name!r}")
            max_target = max(max_target, placement[r])
    total = num_ranks if num_ranks is not None else max_target + 1

    merged = GoalSchedule(total, name=name)
    for tenant_idx, (sched, placement) in enumerate(zip(schedules, placements)):
        tag_offset = tenant_idx * tag_stride
        cpu_offset = tenant_idx * stream_stride
        lookup = _targets(placement, sched.num_ranks)
        for rank in sched.ranks:
            streams = rank.columns()[4]
            if (streams >= stream_stride).any():
                raise ValueError(
                    f"schedule {sched.name!r} uses compute stream "
                    f"{int(streams[streams >= stream_stride][0])} >= "
                    f"stream_stride {stream_stride}; increase stream_stride"
                )
            _place(
                rank, merged.ranks[placement[rank.rank]], lookup,
                tag_offset=tag_offset, cpu_offset=cpu_offset,
            )
    return merged
