"""Output-queued link models for the packet backend.

Each directed link owns one FIFO output queue with

* a byte capacity (``buffer_size``),
* ECN marking thresholds ``kmin`` / ``kmax`` (probabilistic RED-style ramp
  between them, certain marking above ``kmax``),
* drop-on-overflow for sender-based transports, or trim-to-header for
  NDP flows,
* store-and-forward serialisation at the link bandwidth followed by the
  link's propagation latency.

:class:`BurstLinkQueue` serialises *arithmetically*: because the queue is
FIFO and work-conserving, the departure time of a packet is fully determined
at enqueue time (``depart = max(free_at, now) + tx``), so the queue schedules
exactly **one** event per packet — its delivery at the far end — and keeps
occupancy as a lazily-drained ledger of ``(depart, size)`` records.  A whole
congestion window enqueued in one burst therefore advances with one heap
operation per packet.  The event-per-transmission formulation of the same
model (enqueue bookkeeping + transmission completion + propagation arrival)
lives in ``tests/packet_oracle.py`` as the differential oracle.
"""
from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Tuple

import numpy as np

from repro.network.packet.packet import Packet
from repro.network.topology.base import Link

_NEVER = (1 << 62)  # "no pending departure" sentinel for the drain fast path


class BurstLinkQueue:
    """Arithmetic FIFO serialiser of one directed link (one event per packet).

    Accepted packets are appended to the ``out`` stream with their computed
    departure times; the backend's merge loop
    (:meth:`~repro.network.packet.backend.PacketBackend._run_merged`)
    consumes the per-queue streams in canonical order and performs the
    deliveries — the queue itself never fires transmission-completion
    events.

    Occupancy is defined by the ledger's tie rule: a packet occupies the
    buffer from its enqueue until *strictly after* its departure instant, so
    an enqueue happening at exactly another packet's departure time still
    sees that packet queued.  The rule depends on nothing but the two
    timestamps — in particular not on link ids or on the order same-time
    events were scheduled in — for every ``link_latency``, zero included.
    """

    __slots__ = (
        "link",
        "capacity",
        "kmin",
        "kmax",
        "rng",
        "pending",
        "queued_bytes",
        "free_at",
        "latency",
        "drops",
        "trims",
        "ecn_marks",
        "max_queued_bytes",
        "busy_ns",
        "_tx_cache",
        "_bandwidth",
        "_link_id",
        "head_depart",
        "out",
        "live",
        "_streams",
    )

    def __init__(
        self,
        link: Link,
        capacity: int,
        kmin: int,
        kmax: int,
        rng: np.random.Generator,
    ) -> None:
        self.link = link
        self.capacity = capacity
        self.kmin = kmin
        self.kmax = kmax
        self.rng = rng
        # (departure time, size) of every accepted, not-yet-departed packet
        self.pending: Deque[Tuple[int, int]] = deque()
        self.queued_bytes = 0
        self.free_at = 0
        self.latency = link.latency
        self.drops = 0
        self.trims = 0
        self.ecn_marks = 0
        self.max_queued_bytes = 0
        self.busy_ns = 0
        self._tx_cache: dict = {}
        self._bandwidth = link.bandwidth
        self._link_id = link.link_id
        # departure time of the oldest pending packet (sys.maxsize when the
        # ledger is empty): one int compare short-circuits the drain loop
        self.head_depart = _NEVER
        # outgoing deliveries as packets in departure order (each packet's
        # ``depart`` slot holds its departure from this link) — a plain
        # FIFO, already time-sorted because departures are monotone.  The
        # backend's merge loop interleaves the per-queue streams in the
        # canonical (time, depart, link) order; ``live`` records whether the
        # stream's head is currently represented in the merge heap.
        self.out: Deque[Packet] = deque()
        self.live = False
        self._streams: list = []  # reassigned by the backend (shared heap)

    # ------------------------------------------------------------------ enqueue
    def tx_time(self, size: int) -> int:
        """Serialisation time of ``size`` bytes (integer ns, cached per size)."""
        tx = self._tx_cache.get(size)
        if tx is None:
            tx = max(1, int(round(size / self._bandwidth)))
            self._tx_cache[size] = tx
        return tx

    def occupancy(self, now: int) -> int:
        """Queued bytes at ``now``, draining departures strictly before it."""
        if self.head_depart < now:
            pending = self.pending
            qb = self.queued_bytes
            while pending and pending[0][0] < now:
                qb -= pending.popleft()[1]
            self.queued_bytes = qb
            self.head_depart = pending[0][0] if pending else _NEVER
        return self.queued_bytes

    def enqueue(self, packet: Packet, now: int) -> bool:
        """Offer ``packet`` to the queue at time ``now``.

        Returns ``True`` when the packet was accepted (possibly trimmed) and
        ``False`` when it was dropped.  Control packets (ACK/NACK/PULL) and
        already-trimmed headers are never dropped.  Runs once per packet-hop,
        so every slot is read at most once.
        """
        qb = self.queued_bytes
        head = self.head_depart
        pending = self.pending
        if head < now:
            while pending and pending[0][0] < now:
                qb -= pending.popleft()[1]
            head = self.head_depart = pending[0][0] if pending else _NEVER
        size = packet.size
        if packet.kind == 0 and not packet.trimmed:  # DATA
            kmin = self.kmin
            if qb + size > self.capacity:
                if packet.flow.trimmable:
                    # NDP: trim the payload, keep the header.
                    packet.trimmed = True
                    packet.size = size = packet.flow.header_size
                    self.trims += 1
                else:
                    self.drops += 1
                    self.queued_bytes = qb
                    return False
            elif qb > kmin:
                # RED-style ECN on the current pre-enqueue depth
                kmax = self.kmax
                if qb >= kmax:
                    mark = True
                else:
                    prob = (qb - kmin) / max(1, (kmax - kmin))
                    mark = self.rng.random() < prob
                if mark and not packet.ecn:
                    packet.ecn = True
                    self.ecn_marks += 1

        try:
            tx = self._tx_cache[size]
        except KeyError:
            tx = self.tx_time(size)
        free = self.free_at
        depart = (free if free > now else now) + tx
        self.free_at = depart
        self.busy_ns += tx
        qb += size
        self.queued_bytes = qb
        if qb > self.max_queued_bytes:
            self.max_queued_bytes = qb
        if head == _NEVER:
            self.head_depart = depart
        pending.append((depart, size))
        packet.depart = depart
        self.out.append(packet)
        if not self.live:
            self.live = True
            heappush(self._streams, (depart + self.latency, depart, self._link_id))
        return True
