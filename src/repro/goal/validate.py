"""Structural validation of GOAL schedules.

The scheduler assumes several invariants of its input; this module checks
them explicitly so that hand-written or externally parsed schedules fail
early with actionable errors instead of deadlocking a simulation:

* every dependency references an in-range, *earlier* vertex (acyclicity),
* every send/recv peer is a valid rank and not the sending rank itself,
* message matching is consistent: for every ``(src, dst, tag)`` triple the
  total number of sends equals the total number of receives and the byte
  multiset matches (otherwise the simulation would deadlock waiting for a
  message that never arrives).

Op sizes, tags and stream ids need no check: the schedule's columns cannot
hold a negative or non-integer value.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.goal.ops import _CALC, _SEND
from repro.goal.schedule import GoalSchedule, RankSchedule, edge_owners, stack_ranks


class GoalValidationError(ValueError):
    """Raised by :func:`validate_schedule` when an invariant is violated.

    The exception message lists every problem found (up to ``max_errors``),
    one per line, so users can fix a broken generator in one pass.
    """

    def __init__(self, errors: List[str]) -> None:
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def validate_schedule(
    schedule: GoalSchedule,
    check_matching: bool = True,
    max_errors: int = 50,
) -> None:
    """Validate ``schedule``; raise :class:`GoalValidationError` on problems.

    Parameters
    ----------
    schedule:
        The GOAL program to check.
    check_matching:
        Also verify send/recv matching across ranks.  This is O(total ops)
        but can be skipped for partially constructed schedules.
    max_errors:
        Stop collecting after this many problems.

    The checks are array passes over the whole schedule's columns; only a
    vertex that fails one is looked at individually, to word its message.
    """
    errors: List[str] = []

    def report(msg: str) -> None:
        errors.append(msg)
        if len(errors) >= max_errors:
            raise GoalValidationError(errors)

    num_ranks = schedule.num_ranks
    ranks = schedule.ranks
    kind, size, peer, tag, _, degree, dep, rank_of, vertex = stack_ranks(ranks)
    me = np.array([rank.rank for rank in ranks], dtype=np.uint64)[rank_of]
    owner = edge_owners(degree)
    comm = kind != _CALC
    suspect = comm & ((peer >= num_ranks) | (peer == me))
    suspect[owner[(dep < 0) | (dep >= vertex[owner])]] = True
    for at in np.flatnonzero(suspect).tolist():
        _report_vertex(ranks[rank_of[at]], int(vertex[at]), num_ranks, report)

    if check_matching and not errors:
        # a message is (src, dst, tag, size); both sides sorted must agree
        is_send = kind == _SEND
        pair = np.where(is_send, me * num_ranks + peer, peer * num_ranks + me)
        sides = []
        for side in (is_send, comm & ~is_send):
            rows = pair[side], tag[side], size[side]
            order = np.lexsort(rows[::-1])
            sides.append([column[order] for column in rows])
        sends, recvs = sides
        if len(sends[0]) != len(recvs[0]) or any((a != b).any() for a, b in zip(sends, recvs)):
            counters = []
            for pairs, tags, sizes in sides:
                src, dst = divmod(pairs, num_ranks)
                counters.append(Counter(zip(src.tolist(), dst.tolist(), tags.tolist(), sizes.tolist())))
            _report_mismatched_channels(*counters, errors, max_errors)

    if errors:
        raise GoalValidationError(errors)


def _report_vertex(rank: RankSchedule, vertex: int, num_ranks: int, report) -> None:
    """Word the problems of one vertex that failed an array check."""
    me = rank.rank
    op = rank.ops[vertex]
    for dep in rank.preds[vertex]:
        if not 0 <= dep < vertex:
            if not 0 <= dep < len(rank):
                report(f"rank {me}: vertex {vertex} depends on out-of-range vertex {dep}")
            else:
                report(
                    f"rank {me}: vertex {vertex} depends on later/equal vertex {dep} "
                    "(forward edge; schedule is not in definition order)"
                )
    if op.is_calc:
        return
    if not 0 <= op.peer < num_ranks:
        report(
            f"rank {me}: vertex {vertex} ({op.kind.short()}) has invalid peer "
            f"{op.peer} (num_ranks={num_ranks})"
        )
    elif op.peer == me:
        report(
            f"rank {me}: vertex {vertex} ({op.kind.short()}) targets its own rank; "
            "self-messages must be modelled as calc ops"
        )


def _report_mismatched_channels(
    send_counts: Counter, recv_counts: Counter, errors: List[str], max_errors: int
) -> None:
    """Describe, per (src, dst, tag) channel, how sends and receives fail to pair up."""
    # channel -> Counter of message sizes
    send_sizes: Dict[Tuple[int, int, int], Counter] = defaultdict(Counter)
    recv_sizes: Dict[Tuple[int, int, int], Counter] = defaultdict(Counter)
    for by_channel, counts in ((send_sizes, send_counts), (recv_sizes, recv_counts)):
        for (src, dst, tag, size), count in counts.items():
            by_channel[(src, dst, tag)][size] = count

    channels = set(send_sizes) | set(recv_sizes)
    for channel in sorted(channels):
        src, dst, tag = channel
        sends = send_sizes.get(channel, Counter())
        recvs = recv_sizes.get(channel, Counter())
        if sends == recvs:
            continue
        n_send = sum(sends.values())
        n_recv = sum(recvs.values())
        if n_send != n_recv:
            errors.append(
                f"channel src={src} dst={dst} tag={tag}: {n_send} sends but {n_recv} recvs"
            )
        else:
            missing = sends - recvs
            extra = recvs - sends
            errors.append(
                f"channel src={src} dst={dst} tag={tag}: message sizes mismatch "
                f"(unmatched send sizes {dict(missing)}, unmatched recv sizes {dict(extra)})"
            )
        if len(errors) >= max_errors:
            return
