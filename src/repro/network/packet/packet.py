"""Packet object used by the packet-level backend.

Packets are created in the innermost simulation loop, so the class is
slotted and carries only what the forwarding and transport logic needs.
Sizes are bytes; times are integer nanoseconds.
"""
from __future__ import annotations

from typing import Tuple

# Packet kinds
DATA = 0
ACK = 1
NACK = 2
PULL = 3

KIND_NAMES = {DATA: "data", ACK: "ack", NACK: "nack", PULL: "pull"}


class Packet:
    """A single packet in flight.

    Attributes
    ----------
    flow:
        The :class:`repro.network.packet.flow.Flow` this packet belongs to.
    kind:
        ``DATA``, ``ACK``, ``NACK`` or ``PULL``.
    seq:
        Data sequence number (packet index within the flow); for control
        packets, the sequence number being acknowledged / nacked.
    size:
        On-wire size in bytes (payload for data, header size for control and
        trimmed packets).
    route:
        Tuple of link ids from source to destination host.
    hop:
        Index into ``route`` of the link the packet is currently queued on /
        traversing.
    ecn:
        Set when any queue along the path marked the packet; echoed in the
        ACK.
    trimmed:
        True when a congested queue trimmed this data packet to a header
        (NDP); the payload is considered lost but the header still reaches
        the receiver.
    sent_time:
        Time the data packet was injected by the sender (echoed in the ACK
        for RTT measurement).
    depart:
        Departure instant from the link currently transmitting the packet.
    nxt:
        The packet behind this one on that link's FIFO (``None`` at its
        tail); see :mod:`repro.network.packet.linkqueue`.
    """

    __slots__ = (
        "flow",
        "kind",
        "seq",
        "size",
        "route",
        "hop",
        "hops",
        "ecn",
        "trimmed",
        "sent_time",
        "depart",
        "nxt",
    )

    def __init__(
        self,
        flow,
        kind: int,
        seq: int,
        size: int,
        route: Tuple[int, ...],
        sent_time: int = 0,
    ) -> None:
        self.flow = flow
        self.kind = kind
        self.seq = seq
        self.size = size
        self.route = route
        self.hop = 0
        self.hops = len(route)
        self.ecn = False
        self.trimmed = False
        self.sent_time = sent_time
        # departure instant from the link currently transmitting this packet
        # and the link chain's next packet; both maintained by the burst
        # engine (``depart`` is part of the canonical event key)
        self.depart = 0
        self.nxt = None

    def reset(
        self,
        flow,
        kind: int,
        seq: int,
        size: int,
        route: Tuple[int, ...],
        sent_time: int = 0,
    ) -> "Packet":
        """Re-initialise a pooled packet in place (see the backend's pool).

        Equivalent to ``__init__``; returns ``self`` so allocation sites can
        write ``pool.pop().reset(...)``.
        """
        self.flow = flow
        self.kind = kind
        self.seq = seq
        self.size = size
        self.route = route
        self.hop = 0
        self.hops = len(route)
        self.ecn = False
        self.trimmed = False
        self.sent_time = sent_time
        return self

    def __repr__(self) -> str:
        return (
            f"Packet({KIND_NAMES[self.kind]} flow={getattr(self.flow, 'flow_id', '?')} "
            f"seq={self.seq} size={self.size} hop={self.hop}/{len(self.route)})"
        )
