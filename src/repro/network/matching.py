"""Send/receive matching shared by the simulation backends.

Both backends must pair message arrivals with posted receives using MPI-like
semantics: messages on the same ``(source, destination, tag)`` channel match
in FIFO order; a receive posted before the message arrives waits for it, and
a message arriving before its receive is buffered as *unexpected*.

The matcher is deliberately ignorant of time — it only maintains the two
FIFO queues per channel and returns whatever the caller stored, so each
backend can attach its own bookkeeping (arrival times, op ids, CPU streams).
"""
from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

Channel = Tuple[int, int, int]  # (src_rank, dst_rank, tag)


class MessageMatcher:
    """FIFO matcher of message arrivals against posted receives."""

    __slots__ = ("_pending_recvs", "_pending_arrivals")

    def __init__(self) -> None:
        self._pending_recvs: Dict[Channel, Deque[Any]] = {}
        self._pending_arrivals: Dict[Channel, Deque[Any]] = {}

    def post_recv(self, src: int, dst: int, tag: int, info: Any) -> Optional[Any]:
        """Register a posted receive on channel ``(src, dst, tag)``.

        Returns the oldest buffered (unexpected) arrival for that channel if
        one exists — in which case the receive is satisfied immediately and
        *not* queued — otherwise queues ``info`` and returns ``None``.
        """
        channel = (src, dst, tag)
        arrivals = self._pending_arrivals.get(channel)
        if arrivals:
            arrival = arrivals.popleft()
            if not arrivals:
                del self._pending_arrivals[channel]
            return arrival
        self._pending_recvs.setdefault(channel, deque()).append(info)
        return None

    def post_arrival(self, src: int, dst: int, tag: int, info: Any) -> Optional[Any]:
        """Register a message arrival on channel ``(src, dst, tag)``.

        Returns the oldest posted receive waiting on that channel if one
        exists — the arrival is then consumed by it — otherwise buffers
        ``info`` as an unexpected message and returns ``None``.
        """
        channel = (src, dst, tag)
        recvs = self._pending_recvs.get(channel)
        if recvs:
            recv = recvs.popleft()
            if not recvs:
                del self._pending_recvs[channel]
            return recv
        self._pending_arrivals.setdefault(channel, deque()).append(info)
        return None

    def pending_recv_count(self) -> int:
        """Total receives still waiting for a message (used to detect deadlock)."""
        return sum(len(q) for q in self._pending_recvs.values())

    def pending_arrival_count(self) -> int:
        """Total buffered unexpected messages (used to detect unmatched sends)."""
        return sum(len(q) for q in self._pending_arrivals.values())
