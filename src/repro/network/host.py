"""Host compute model shared by all backends.

GOAL ``calc`` vertices and the per-message CPU overheads (LogGOPS ``o`` and
``O``) execute on *compute streams*: independent serial resources per rank
(paper §2.1 — ops on different streams may overlap, ops on the same stream
serialise).  Both the message-level and the packet-level backend need the
same bookkeeping, so it lives here.

The model is intentionally simple and non-preemptive: a stream executes work
items back-to-back in the order they are reserved.  This matches LogGOPSim's
behaviour and is sufficient for the paper's accuracy targets.
"""
from __future__ import annotations

from typing import Dict, Tuple


class HostCompute:
    """Tracks per-rank, per-stream CPU availability.

    All times are integer nanoseconds.  Streams are created lazily on first
    use; an unused stream is free at time 0.
    """

    __slots__ = ("_free_at",)

    def __init__(self) -> None:
        # (rank, stream) -> time at which the stream becomes free
        self._free_at: Dict[Tuple[int, int], int] = {}

    def reserve(self, rank: int, stream: int, earliest: int, duration: int) -> Tuple[int, int]:
        """Reserve ``duration`` ns on ``(rank, stream)`` not earlier than ``earliest``.

        Returns ``(start, end)`` of the reserved interval and marks the stream
        busy until ``end``.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        key = (rank, stream)
        start = max(earliest, self._free_at.get(key, 0))
        end = start + duration
        self._free_at[key] = end
        return start, end
