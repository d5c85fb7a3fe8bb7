"""Event-per-transmission oracle for the packet backend (test-only).

The shipped engine serialises each link arithmetically: a packet's departure
time is computed at enqueue, occupancy is a lazily drained ledger, and the
only event per hop is the delivery, merged from per-link streams.  This file
keeps the *textbook* formulation of the same link model — a FIFO of packets,
a ``busy`` transmitter, one transmission-completion event and one
propagation-arrival event per hop, all on the ordinary event heap — as the
oracle the ``PACKET`` rows of ``tests/differential.py`` compare the engine
against.

Nothing in ``src/`` knows about it: :class:`PerTransmissionBackend` is a
:class:`~repro.network.packet.backend.PacketBackend` whose ``setup`` swaps
the queue objects before any traffic exists (the trick the sharded engine
uses for its boundary queues), whose ``issue_*`` post every op on the heap
(the engine posts what is due now on the ready queue) and whose ``run``
drains the plain event heap.
Pass an instance as ``simulate(..., backend=PerTransmissionBackend())``.

Its per-packet transport is the textbook one too.  The engine turns an
arriving DATA packet into its own ACK (or NACK) in place, and runs each
congestion control's ``on_ack`` and the injection loop as flat code with
the window computed once per ACK.  The oracle allocates a fresh ACK packet
per delivery, asks the flow and the window through small helpers, and
adapts the window with each algorithm's ``on_ack`` written the plain way
(``ON_ACK`` below), so the ``PACKET`` rows hold the engine's cycle to an
independent statement of the same transport.

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

from repro.network.congestion import DCTCP, MPRDMA, FixedWindow, NDPReceiverDriven, Swift
from repro.network.packet.backend import PacketBackend
from repro.network.packet.packet import ACK, DATA, NACK, PULL, Packet


# ---------------------------------------------------------------------------
# window adaptation, one function per algorithm
# ---------------------------------------------------------------------------
def _clamp(cc):
    if cc.cwnd < cc.min_window:
        cc.cwnd = cc.min_window


def _mprdma_on_ack(cc, acked_bytes, ecn_marked, rtt_ns):
    if ecn_marked:
        cc.cwnd -= cc.decrease_per_mark
    else:
        cc.cwnd += cc.increase_gain / max(cc.cwnd, 1.0)
    _clamp(cc)


def _dctcp_on_ack(cc, acked_bytes, ecn_marked, rtt_ns):
    cc._acks_in_window += 1
    if ecn_marked:
        cc._marks_in_window += 1
    cc.cwnd += 1.0 / max(cc.cwnd, 1.0)
    if cc._acks_in_window >= cc.cwnd:
        frac = cc._marks_in_window / cc._acks_in_window
        cc.alpha = (1.0 - cc.g) * cc.alpha + cc.g * frac
        if cc._marks_in_window:
            cc.cwnd *= 1.0 - cc.alpha / 2.0
        cc._acks_in_window = 0
        cc._marks_in_window = 0
    _clamp(cc)


def _swift_on_ack(cc, acked_bytes, ecn_marked, rtt_ns):
    if rtt_ns <= cc.target_delay_ns:
        cc.cwnd += cc.ai / max(cc.cwnd, 1.0)
        cc._acks_since_decrease += 1
    else:
        cc._acks_since_decrease += 1
        if cc._acks_since_decrease >= cc.cwnd:
            excess = (rtt_ns - cc.target_delay_ns) / rtt_ns
            cc.cwnd *= max(1.0 - cc.beta * excess, 1.0 - cc.max_mdf)
            cc._acks_since_decrease = 0
    _clamp(cc)


def _no_adaptation(cc, acked_bytes, ecn_marked, rtt_ns):
    pass


ON_ACK = {
    MPRDMA: _mprdma_on_ack,
    DCTCP: _dctcp_on_ack,
    Swift: _swift_on_ack,
    FixedWindow: _no_adaptation,
    NDPReceiverDriven: _no_adaptation,
}


# ---------------------------------------------------------------------------
# flow queries
# ---------------------------------------------------------------------------
def _window_bytes(cc):
    return int(cc.cwnd * cc.mtu)


def _has_retransmissions(flow):
    return bool(flow.retransmit_queue)


def _has_unsent_data(flow):
    return flow.next_new_seq < flow.num_packets


def _on_data_received(flow, seq):
    """Record data packet ``seq``; True if it was new."""
    if seq in flow.received:
        return False
    flow.received.add(seq)
    return True


def _fully_received(flow):
    return len(flow.received) == flow.num_packets


class TransmissionLinkQueue:
    """FIFO output queue + transmitter of one directed link, event by event."""

    def __init__(self, link, events, deliver, capacity, kmin, kmax, rng):
        self.link = link
        self.events = events
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
                    return False
                packet.trimmed = True  # NDP: keep the header
                packet.size = packet.flow.header_size
                self.trims += 1
            else:
                self._maybe_mark_ecn(packet)
        self.queue.append(packet)
        self.queued_bytes += packet.size
        if self.queued_bytes > self.max_queued_bytes:
            self.max_queued_bytes = self.queued_bytes
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


class PerTransmissionBackend(PacketBackend):
    """The packet backend on :class:`TransmissionLinkQueue` and the plain heap."""

    def setup(self, num_ranks, config):
        super().setup(num_ranks, config)
        # queues are untouched before traffic, so swapping objects is exact
        self.queues = [
            TransmissionLinkQueue(
                q.link, self.events, self._on_link_delivery,
                q.capacity, q.kmin, q.kmax, q.rng,
            )
            for q in self.queues
        ]

    # every op is a heap event, never a ready entry
    def issue_calc(self, rank, stream, duration_ns, op_id, ready_time):
        _, end = self.host.reserve(rank, stream, ready_time, duration_ns)
        self.events.schedule(end, self.on_complete, (rank, op_id))

    def issue_send(self, rank, dst, size, tag, stream, op_id, ready_time):
        self.events.schedule(ready_time, self._start_send, (rank, dst, size, tag, stream, op_id))

    def issue_recv(self, rank, src, size, tag, stream, op_id, ready_time):
        self.events.schedule(ready_time, self._post_recv, (rank, src, size, tag, stream, op_id))

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

    # ---------------------------------------------------------- transport
    def _flow_ready(self, time, flow):
        if flow.cc.receiver_driven:
            for _ in range(min(flow.cc.initial_window_packets, flow.num_packets)):
                seq = flow.next_seq_to_send()
                if seq is None:
                    break
                self._send_data_packet(flow, seq, time)
        else:
            self._try_send(flow, time)

    def _try_send(self, flow, now):
        """Inject packets while the flow has any and the window allows."""
        if flow.cc.receiver_driven:
            return
        while _has_retransmissions(flow) or _has_unsent_data(flow):
            inflight = flow.inflight_bytes
            if inflight + flow.cc.mtu > _window_bytes(flow.cc) and inflight != 0:
                return
            seq = flow.next_seq_to_send()
            if seq is None:
                return
            self._send_data_packet(flow, seq, now)

    def _send_data_packet(self, flow, seq, now, retransmission=False):
        size = flow.packet_size(seq)
        packet = Packet(flow, DATA, seq, size, flow.route, sent_time=now)
        flow.inflight_bytes += size
        if flow.trimmable:
            flow.sent_times[seq] = now
        self._n_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
        if self.op_group is not None:
            group = self.op_group[flow.op_id]
            if group >= 0:
                arr = self._group_link_bytes.get(group)
                if arr is None:
                    arr = self._group_link_bytes[group] = np.zeros(len(self.queues), dtype=np.int64)
                for link in flow.route:
                    arr[link] += size
        if not self.queues[flow.route[0]].enqueue(packet, now):
            self._handle_data_drop(packet, now)
        if not flow.send_op_completed and not _has_unsent_data(flow) and not _has_retransmissions(flow):
            flow.send_op_completed = True
            self.on_complete(now, (flow.src, flow.op_id))

    def _handle_data_arrival(self, packet, now):
        flow = packet.flow
        if packet.trimmed:
            # NDP: the payload was cut; NACK the sequence and pull a retransmit
            self._send_control(flow, NACK, packet.seq, flow.ack_route, now)
            self._request_pull(flow, now)
            return
        self._n_delivered += 1
        new = _on_data_received(flow, packet.seq)
        # a fresh ACK echoing the ECN mark and the send time
        ack = Packet(flow, ACK, packet.seq, self.config.ack_size, flow.ack_route, sent_time=packet.sent_time)
        ack.ecn = packet.ecn
        self.queues[flow.ack_route[0]].enqueue(ack, now)
        if flow.cc.receiver_driven and not _fully_received(flow):
            self._request_pull(flow, now)
        if new and _fully_received(flow) and not flow.message_delivered:
            flow.message_delivered = True
            if self._faults_enabled and not self._fault_flow_live(flow):
                self.live_flows.pop(flow.flow_id, None)
            self._message_delivered(flow.src, flow.dst, flow.size, flow.tag, flow.post_time, now, flow.op_id)
            matched = self.matcher.post_arrival(flow.src, flow.dst, flow.tag, now)
            if matched is not None:
                self._complete_recv(matched, now)

    def _handle_ack(self, packet, now):
        flow = packet.flow
        if packet.seq in flow.acked:
            return
        flow.acked.add(packet.seq)
        freed = flow.packet_size(packet.seq)
        flow.inflight_bytes = max(0, flow.inflight_bytes - freed)
        ON_ACK[type(flow.cc)](flow.cc, freed, packet.ecn, max(1, now - packet.sent_time))
        self._try_send(flow, now)

    def run(self, on_complete):
        self._require_setup()
        self.on_complete = on_complete
        return self.events.run()
