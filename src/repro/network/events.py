"""Discrete-event machinery shared by both simulation backends.

A minimal binary-heap event queue of *handler* events — completions, flow
setup, timeouts, pacer ticks, fault applications, control-plane
"switch-learn" events — keyed ``(time, 0, sequence)``: same-time events run
in insertion order.

Same-instant ready queue.  An event that is due *now* need not go through
the heap at all: a backend may append ``(now, 0, sequence, callback,
payload)`` to ``_ready`` instead of pushing it, taking the next sequence
number exactly as :meth:`EventQueue.schedule` would.  :meth:`EventQueue.run`
runs the oldest ready entry unless the heap holds an entry at ``now`` with a
smaller sequence number, so every event still runs in ``(time, sequence)``
order — the order a heap holding both would pop — whatever else is pushed at
``now`` meanwhile.  Ready entries count in :attr:`EventQueue.executed` like
any other event.  Both backends post every send and receive this way, and
the completion of every calc that ends now (the scheduler issues an op at
its last predecessor's completion time, which is the current time; see
:class:`~repro.network.backend.NetworkBackend`); the packet backend's merge
loop consults the ready queue under the same rule.

Packet deliveries (event class 1) are not on this heap.  The packet
backend's merge loop
(:meth:`~repro.network.packet.backend.PacketBackend._run_merged`) interleaves
the per-link delivery streams in ``(time, departure time, link id)`` order
and runs same-time handler events, ready entries included, first.  Those
keys are physical properties of the simulated network, so the order of
same-timestamp events — and with it a whole simulation — does not depend on
how an engine happened to schedule them; the event-per-transmission oracle in ``tests/packet_oracle.py``
pushes the same keys onto this heap and pops the same sequence.

The queue stores flat tuples rather than event objects; in the hot
per-packet path this avoids one attribute lookup and one allocation per
event (see the hpc-parallel guides on keeping inner loops allocation-light).
"""
from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

EventCallback = Callable[[int, Any], None]

# entry layout: (time, klass, key..., callback, payload); everything this
# module pushes or queues as ready is (time, 0, sequence, callback, payload)
_Entry = Tuple[int, ...]


class EventQueue:
    """Deterministic discrete-event queue with integer-nanosecond timestamps."""

    __slots__ = ("_heap", "_ready", "_seq", "_now", "executed")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        #: Entries due at :attr:`now`, oldest first (see the module docstring).
        self._ready: Deque[_Entry] = deque()
        self._seq = 0
        self._now = 0
        #: Events executed so far (by :meth:`run` or a backend's own loop),
        #: ready entries included; the benchmark reports this as events/sec.
        self.executed = 0

    @property
    def now(self) -> int:
        """Current simulation time (the timestamp of the last popped event)."""
        return self._now

    def schedule(self, time: int, callback: EventCallback, payload: Any = None) -> None:
        """Schedule ``callback(time, payload)`` at simulation time ``time``.

        Same-time handler events run in insertion order, before any
        same-time packet delivery.  Scheduling in the past (before the current
        time) is a logic error in a discrete-event simulation and raises
        ``ValueError``.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} ns before current time {self._now} ns"
            )
        heapq.heappush(self._heap, (int(time), 0, self._seq, callback, payload))
        self._seq += 1

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next event, or ``None`` if the queue is empty."""
        if self._ready:
            return self._now
        return self._heap[0][0] if self._heap else None

    def run(self) -> int:
        """Run events until the queue drains; return the time of the last one."""
        executed = 0
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        # a ready entry is due now, and so is a heap top that sorts before it
        while True:
            if ready:
                entry = ready[0]
                if heap and heap[0] < entry:
                    entry = pop(heap)
                else:
                    popleft()
            elif heap:
                entry = pop(heap)
                self._now = entry[0]
            else:
                break
            entry[-2](entry[0], entry[-1])
            executed += 1
        self.executed += executed
        return self._now
