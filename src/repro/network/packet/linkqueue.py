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
exactly **one** event per packet — its delivery at the far end.  A whole
congestion window enqueued in one burst therefore advances with one heap
operation per packet.  The event-per-transmission formulation of the same
model (enqueue bookkeeping + transmission completion + propagation arrival)
lives in ``tests/packet_oracle.py`` as the differential oracle.

A link is a few scalars.  Its accepted packets form one intrusive FIFO,
threaded through each packet's ``nxt`` slot from ``head`` (the next
delivery) to ``tail``; the packets themselves are the backend's pooled
records, so a link that never carries traffic holds no container at all.
Occupancy is a lazily drained ledger over the same chain: ``undrained``
points at the oldest packet whose bytes still count, and a drain walks the
chain from there.  A packet delivered before any drain reached it leaves
the chain, so it is retired at delivery: its bytes are subtracted then, or,
when it departs at that very instant (a 0 ns link), held in ``tie_bytes``
until a drain after that instant, ``head_depart`` being the instant.
Serialisation times come from a ``size -> ns`` table the backend shares
among all links of one bandwidth.
"""
from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional

import numpy as np

from repro.network.packet.packet import Packet
from repro.network.topology.base import Link

_NEVER = (1 << 62)  # "no pending departure" sentinel for the drain fast path


class BurstLinkQueue:
    """Arithmetic FIFO serialiser of one directed link (one event per packet).

    Accepted packets are linked onto the queue's chain with their computed
    departure times; the backend's merge loop
    (:meth:`~repro.network.packet.backend.PacketBackend._run_merged`)
    consumes the per-queue chains in canonical order, performs the
    deliveries and retires undrained packets as they leave — the queue
    itself never fires transmission-completion events.

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
        "tx",
        "queued_bytes",
        "free_at",
        "latency",
        "drops",
        "trims",
        "ecn_marks",
        "max_queued_bytes",
        "busy_ns",
        "_link_id",
        "head_depart",
        "head",
        "tail",
        "undrained",
        "tie_bytes",
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
        tx: Dict[int, int],
    ) -> None:
        self.link = link
        self.capacity = capacity
        self.kmin = kmin
        self.kmax = kmax
        self.rng = rng
        # serialisation ns per packet size, shared by every link of this
        # link's bandwidth (filled on first use of each size)
        self.tx = tx
        self.queued_bytes = 0
        self.free_at = 0
        self.latency = link.latency
        self.drops = 0
        self.trims = 0
        self.ecn_marks = 0
        self.max_queued_bytes = 0
        self.busy_ns = 0
        self._link_id = link.link_id
        # the earliest instant after which a drain changes the ledger: the
        # oldest undrained departure, or the departure instant of the
        # packet ``tie_bytes`` holds; _NEVER when neither exists, so one
        # int compare short-circuits the drain
        self.head_depart = _NEVER
        # the chain of accepted packets in departure order (each packet's
        # ``depart`` slot holds its departure from this link) — already
        # time-sorted because departures are monotone.  The backend's merge
        # loop interleaves the per-queue chains in the canonical (time,
        # depart, link) order; ``live`` records whether the chain's head is
        # currently represented in the merge heap.
        self.head: Optional[Packet] = None
        self.tail: Optional[Packet] = None
        self.undrained: Optional[Packet] = None
        self.tie_bytes = 0
        self.live = False
        self._streams: list = []  # reassigned by the backend (shared heap)

    # ------------------------------------------------------------------ enqueue
    def occupancy(self, now: int) -> int:
        """Queued bytes at ``now``, draining departures strictly before it."""
        if self.head_depart < now:
            qb = self.queued_bytes - self.tie_bytes
            self.tie_bytes = 0
            p = self.undrained
            while p is not None and p.depart < now:
                qb -= p.size
                p = p.nxt
            self.undrained = p
            self.queued_bytes = qb
            self.head_depart = _NEVER if p is None else p.depart
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
        if head < now:
            # a held tie departed strictly before ``now`` (it holds
            # head_depart), and so did every chain packet walked here
            qb -= self.tie_bytes
            self.tie_bytes = 0
            p = self.undrained
            while p is not None and p.depart < now:
                qb -= p.size
                p = p.nxt
            self.undrained = p
            head = self.head_depart = _NEVER if p is None else p.depart
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

        table = self.tx
        try:
            tx = table[size]
        except KeyError:
            tx = table[size] = max(1, int(round(size / self.link.bandwidth)))
        free = self.free_at
        depart = (free if free > now else now) + tx
        self.free_at = depart
        self.busy_ns += tx
        qb += size
        self.queued_bytes = qb
        if qb > self.max_queued_bytes:
            self.max_queued_bytes = qb
        packet.depart = depart
        packet.nxt = None
        if self.head is None:
            self.head = packet
        else:
            self.tail.nxt = packet
        self.tail = packet
        if self.undrained is None:
            self.undrained = packet
            if head == _NEVER:
                self.head_depart = depart
        if not self.live:
            self.live = True
            heappush(self._streams, (depart + self.latency, depart, self._link_id))
        return True
