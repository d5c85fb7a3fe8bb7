"""Per-message transport state for the packet backend.

Every GOAL ``send`` becomes one :class:`Flow`: the message is segmented into
MTU-sized packets, transmitted under the flow's congestion-control instance,
and reassembled at the receiver.  The flow tracks both sender-side state
(what has been injected, what is in flight, what needs retransmission) and
receiver-side state (which sequence numbers have arrived).
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.network.congestion.base import CongestionControl


class Flow:
    """State of one message in the packet-level simulation."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "tag",
        "op_id",
        "stream",
        "post_time",
        "mtu",
        "num_packets",
        "last_packet_size",
        "cc",
        "route",
        "ack_route",
        "route_q0",
        "ack_q0",
        "next_new_seq",
        "inflight_bytes",
        "acked",
        "sent_times",
        "retransmit_queue",
        "retransmit_pending",
        "received",
        "send_op_completed",
        "message_delivered",
        "trimmable",
        "header_size",
        "key",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int,
        tag: int,
        op_id: int,
        stream: int,
        post_time: int,
        mtu: int,
        cc: CongestionControl,
        route: Tuple[int, ...],
        ack_route: Tuple[int, ...],
    ) -> None:
        if size <= 0:
            raise ValueError("flow size must be positive")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.tag = tag
        self.op_id = op_id
        self.stream = stream
        self.post_time = post_time
        self.mtu = mtu
        self.num_packets = (size + mtu - 1) // mtu
        self.last_packet_size = size - (self.num_packets - 1) * mtu
        self.cc = cc
        self.route = route
        self.ack_route = ack_route
        # first-hop queue objects, cached by the backend at flow creation so
        # the per-packet injection path skips two list lookups
        self.route_q0 = None
        self.ack_q0 = None

        # sender-side state
        self.next_new_seq = 0
        self.inflight_bytes = 0
        self.acked: Set[int] = set()
        # allocated on first need: most flows never lose a packet, and only
        # the NDP pull path reads per-seq send times
        self.sent_times: Optional[Dict[int, int]] = {} if cc.receiver_driven else None
        self.retransmit_queue: Optional[Deque[int]] = None
        self.retransmit_pending: Optional[Set[int]] = None
        self.send_op_completed = False

        # receiver-side state
        self.received: Set[int] = set()
        self.message_delivered = False

        # NDP specifics
        self.trimmable = cc.receiver_driven
        self.header_size = getattr(cc, "header_size", 64)

        # sharded engine only: the globally unique (src, dst, pair
        # occurrence) identity boundary packets resolve their flow by
        self.key = None

    # -------------------------------------------------------------- sender side
    def packet_size(self, seq: int) -> int:
        """On-wire payload size of packet ``seq``."""
        if seq == self.num_packets - 1:
            return self.last_packet_size
        return self.mtu

    def next_seq_to_send(self) -> Optional[int]:
        """Pick the next sequence number to transmit (retransmissions first)."""
        while self.retransmit_queue:
            seq = self.retransmit_queue.popleft()
            self.retransmit_pending.discard(seq)
            if seq not in self.acked:
                return seq
        if self.next_new_seq < self.num_packets:
            seq = self.next_new_seq
            self.next_new_seq += 1
            return seq
        return None

    def mark_for_retransmission(self, seq: int) -> bool:
        """Queue ``seq`` for retransmission unless already acked or queued."""
        if seq in self.acked:
            return False
        if self.retransmit_queue is None:
            self.retransmit_queue = deque()
            self.retransmit_pending = set()
        elif seq in self.retransmit_pending:
            return False
        self.retransmit_pending.add(seq)
        self.retransmit_queue.append(seq)
        return True

    def all_acked(self) -> bool:
        return len(self.acked) == self.num_packets

    def __repr__(self) -> str:
        return (
            f"Flow({self.flow_id}: {self.src}->{self.dst} {self.size}B "
            f"{len(self.acked)}/{self.num_packets} acked)"
        )
