"""Event-per-transmission oracle for the packet backend (test-only).

The shipped engine serialises each link arithmetically: a packet's departure
time is computed at enqueue, occupancy is a lazily drained ledger, and the
only event per hop is the delivery, merged from per-link streams.  This file
keeps the *textbook* formulation of the same link model — a FIFO of packets,
a ``busy`` transmitter, one transmission-completion event and one
propagation-arrival event per hop, all on the ordinary event heap — as the
oracle the differential suites compare the engine against
(``tests/test_perf_determinism.py``, ``tests/test_faults.py``).

Nothing in ``src/`` knows about it: :class:`PerTransmissionBackend` is a
:class:`~repro.network.packet.backend.PacketBackend` whose ``setup`` swaps
the queue objects before any traffic exists (the trick the sharded engine
uses for its boundary queues) and whose ``run`` drains the plain event heap.
Pass an instance as ``simulate(..., backend=PerTransmissionBackend())``.

Event order.  Handler events are ``(time, 0, sequence)``; the oracle pushes
deliveries as ``(time, 1, departure, link id)`` and transmission completions
as ``(time, 2, link id)``.  Same-time deliveries therefore pop in the merge
loop's ``(departure, link)`` order, and a completion at ``t`` retires its
packet after every same-time handler and delivery — the ledger's "occupies
the buffer until strictly after its departure instant" rule.

Scope: ``link_latency >= 1``.  With ``link_latency=0`` a completion at ``t``
on link A pushes a delivery at ``t`` *while class-2 events of ``t`` are being
popped*, so the arriving packet sees link B's departing packet still queued
iff ``id(B) > id(A)``: the oracle's occupancy at a tie depends on link-id
order.  The engine's ledger compares two timestamps and nothing else, so it
is the definition there (measured at the parent commit: drops, ECN marks and
finish times differed on incast 12x512 KiB and all-to-all 8x64 KiB under
mprdma, dctcp and ndp at ``link_latency=0``; identical from 1 ns up).
"""
from __future__ import annotations

from collections import deque
from heapq import heappush

import numpy as np

from repro.network.packet.backend import PacketBackend
from repro.network.packet.packet import ACK, DATA, NACK, PULL


class TransmissionLinkQueue:
    """FIFO output queue + transmitter of one directed link, event by event."""

    def __init__(self, link, events, stats, deliver, capacity, kmin, kmax, rng):
        self.link = link
        self.events = events
        self.stats = stats
        self.deliver = deliver
        self.capacity = capacity
        self.kmin = kmin
        self.kmax = kmax
        self.rng = rng
        self.queue = deque()
        self.queued_bytes = 0
        self.busy = False
        self.drops = 0
        self.trims = 0
        self.ecn_marks = 0
        self.max_queued_bytes = 0
        self.busy_ns = 0

    def enqueue(self, packet, now):
        """Offer ``packet``; False when dropped (DATA on a full buffer only)."""
        if packet.kind == DATA and not packet.trimmed:
            if self.queued_bytes + packet.size > self.capacity:
                if not packet.flow.trimmable:
                    self.drops += 1
                    self.stats.packets_dropped += 1
                    return False
                packet.trimmed = True  # NDP: keep the header
                packet.size = packet.flow.header_size
                self.trims += 1
                self.stats.packets_trimmed += 1
            else:
                self._maybe_mark_ecn(packet)
        self.queue.append(packet)
        self.queued_bytes += packet.size
        if self.queued_bytes > self.max_queued_bytes:
            self.max_queued_bytes = self.queued_bytes
            if self.queued_bytes > self.stats.max_queue_bytes:
                self.stats.max_queue_bytes = self.queued_bytes
        if not self.busy:
            self._start_transmission(now)
        return True

    def _maybe_mark_ecn(self, packet):
        """RED-style marking on the instantaneous pre-enqueue depth."""
        q = self.queued_bytes
        if q <= self.kmin:
            return
        if q >= self.kmax:
            mark = True
        else:
            mark = self.rng.random() < (q - self.kmin) / max(1, self.kmax - self.kmin)
        if mark and not packet.ecn:
            packet.ecn = True
            self.ecn_marks += 1
            self.stats.packets_ecn_marked += 1

    def _start_transmission(self, now):
        packet = self.queue[0]
        self.busy = True
        tx_ns = max(1, int(round(packet.size / self.link.bandwidth)))
        self.busy_ns += tx_ns
        heappush(
            self.events._heap,
            (now + tx_ns, 2, self.link.link_id, self._finish_transmission, packet),
        )

    def _finish_transmission(self, now, packet):
        popped = self.queue.popleft()
        assert popped is packet, "link queue transmitted out of order"
        self.queued_bytes -= packet.size
        heappush(
            self.events._heap,
            (now + self.link.latency, 1, now, self.link.link_id, self._arrive, packet),
        )
        if self.queue:
            self._start_transmission(now)
        else:
            self.busy = False

    def _arrive(self, now, packet):
        self.deliver(packet, now)

    def utilization(self, elapsed_ns):
        return 0.0 if elapsed_ns <= 0 else min(1.0, self.busy_ns / elapsed_ns)


class PerTransmissionBackend(PacketBackend):
    """The packet backend on :class:`TransmissionLinkQueue` and the plain heap."""

    def setup(self, num_ranks, config):
        super().setup(num_ranks, config)
        # queues are untouched before traffic, so swapping objects is exact
        self.queues = [
            TransmissionLinkQueue(
                q.link, self.events, self.stats, self._on_link_delivery,
                q.capacity, q.kmin, q.kmax, q.rng,
            )
            for q in self.queues
        ]

    def _link_load_view(self):
        return np.array([q.queued_bytes for q in self.queues], dtype=np.int64)

    def _on_link_delivery(self, packet, now):
        """Forward ``packet`` to its next hop or consume it at its endpoint."""
        packet.hop += 1
        if packet.hop < len(packet.route):
            if (
                self._faults_enabled
                and packet.kind == DATA
                and self._masked(packet.route, packet.hop)
                and not self._fault_forward(packet, packet.hop, now)
            ):
                return
            if not self.queues[packet.route[packet.hop]].enqueue(packet, now):
                self._handle_data_drop(packet, now)
        elif packet.kind == DATA:
            self._handle_data_arrival(packet, now)
        elif packet.kind == ACK:
            self._handle_ack(packet, now)
        elif packet.kind == NACK:
            self._handle_nack(packet, now)
        elif packet.kind == PULL:
            self._handle_pull(packet, now)

    def _handle_ack(self, packet, now):
        flow = packet.flow
        if packet.seq in flow.acked:
            return
        flow.acked.add(packet.seq)
        freed = flow.packet_size(packet.seq)
        flow.inflight_bytes = max(0, flow.inflight_bytes - freed)
        flow.cc.on_ack(freed, packet.ecn, max(1, now - packet.sent_time))
        self._try_send(flow, now)

    def run(self, on_complete):
        self._require_setup()
        self._on_complete = on_complete
        return self.events.run()
