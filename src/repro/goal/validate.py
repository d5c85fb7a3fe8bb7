"""Structural validation of GOAL schedules.

The scheduler assumes several invariants of its input; this module checks
them explicitly so that hand-written or externally parsed schedules fail
early with actionable errors instead of deadlocking a simulation:

* every dependency references an in-range, *earlier* vertex (acyclicity),
* every send/recv peer is a valid rank and not the sending rank itself,
* message matching is consistent: for every ``(src, dst, tag)`` triple the
  total number of sends equals the total number of receives and the byte
  multiset matches (otherwise the simulation would deadlock waiting for a
  message that never arrives),
* op sizes and stream ids are non-negative.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.goal.ops import _CALC, _SEND
from repro.goal.schedule import GoalSchedule


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
    """
    errors: List[str] = []

    def report(msg: str) -> None:
        errors.append(msg)
        if len(errors) >= max_errors:
            raise GoalValidationError(errors)

    num_ranks = schedule.num_ranks
    # (src, dst, tag, size) -> message count, filled in the same pass
    sends: Counter = Counter()
    recvs: Counter = Counter()
    for rank in schedule.ranks:
        me = rank.rank
        n = len(rank.ops)
        for vertex, (op, deps) in enumerate(zip(rank.ops, rank.preds)):
            for dep in deps:
                if not 0 <= dep < vertex:
                    if not 0 <= dep < n:
                        report(f"rank {me}: vertex {vertex} depends on out-of-range vertex {dep}")
                    else:
                        report(
                            f"rank {me}: vertex {vertex} depends on later/equal vertex {dep} "
                            "(forward edge; schedule is not in definition order)"
                        )
            if op.size < 0:
                report(f"rank {me}: vertex {vertex} has negative size {op.size}")
            if op.cpu < 0:
                report(f"rank {me}: vertex {vertex} has negative cpu {op.cpu}")
            kind = op.kind
            if kind == _CALC:
                continue
            peer = op.peer
            if peer is None or not 0 <= peer < num_ranks:
                report(
                    f"rank {me}: vertex {vertex} ({kind.short()}) has invalid peer "
                    f"{peer} (num_ranks={num_ranks})"
                )
            elif peer == me:
                report(
                    f"rank {me}: vertex {vertex} ({kind.short()}) targets its own rank; "
                    "self-messages must be modelled as calc ops"
                )
            elif kind == _SEND:
                sends[(me, peer, op.tag, op.size)] += 1
            else:
                recvs[(peer, me, op.tag, op.size)] += 1

    if check_matching and not errors and sends != recvs:
        _report_mismatched_channels(sends, recvs, errors, max_errors)

    if errors:
        raise GoalValidationError(errors)


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
