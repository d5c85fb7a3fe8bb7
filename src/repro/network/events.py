"""Discrete-event machinery shared by both simulation backends.

A minimal binary-heap event queue of *handler* events — completions, flow
setup, timeouts, pacer ticks, fault applications, control-plane
"switch-learn" events — keyed ``(time, 0, sequence)``: same-time events run
in insertion order.

Packet deliveries (event class 1) are not on this heap.  The packet
backend's merge loop
(:meth:`~repro.network.packet.backend.PacketBackend._run_merged`) interleaves
the per-link delivery streams in ``(time, departure time, link id)`` order
and runs same-time handler events first.  Those keys are physical properties
of the simulated network, so the order of same-timestamp events — and with
it a whole simulation — does not depend on how an engine happened to
schedule them; the event-per-transmission oracle in ``tests/packet_oracle.py``
pushes the same keys onto this heap and pops the same sequence.

The queue stores flat tuples rather than event objects; in the hot
per-packet path this avoids one attribute lookup and one allocation per
event (see the hpc-parallel guides on keeping inner loops allocation-light).
"""
from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

EventCallback = Callable[[int, Any], None]

# entry layout: (time, klass, key..., callback, payload); everything this
# module pushes is (time, 0, sequence, callback, payload)
_Entry = Tuple[int, ...]


class EventQueue:
    """Deterministic discrete-event queue with integer-nanosecond timestamps."""

    __slots__ = ("_heap", "_seq", "_now", "executed")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._now = 0
        #: Events executed so far (by :meth:`run` or a backend's own loop);
        #: the bench harness reports this as events/sec.
        self.executed = 0

    @property
    def now(self) -> int:
        """Current simulation time (the timestamp of the last popped event)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def empty(self) -> bool:
        return not self._heap

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

    def schedule_after(self, delay: int, callback: EventCallback, payload: Any = None) -> None:
        """Schedule an event ``delay`` ns after the current time."""
        self.schedule(self._now + int(delay), callback, payload)

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next event, or ``None`` if the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Tuple[int, EventCallback, Any]:
        """Pop and return the next ``(time, callback, payload)``; advances the clock."""
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        return entry[0], entry[-2], entry[-1]

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains (or a limit is hit).

        Parameters
        ----------
        until:
            Stop (without executing) events scheduled after this time.
        max_events:
            Safety valve against runaway simulations: at most ``max_events``
            events execute, and ``RuntimeError`` is raised if more remain.

        Returns
        -------
        int
            The simulation time after the last executed event.
        """
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        if until is None and max_events is None:
            # hot path: no limit checks inside the loop
            while heap:
                entry = pop(heap)
                time = entry[0]
                self._now = time
                entry[-2](time, entry[-1])
                executed += 1
            self.executed += executed
            return self._now
        while heap:
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                self.executed += executed
                raise RuntimeError(
                    f"event limit exceeded ({max_events} events); "
                    "simulation is likely livelocked"
                )
            entry = pop(heap)
            time = entry[0]
            self._now = time
            entry[-2](time, entry[-1])
            executed += 1
        self.executed += executed
        return self._now
