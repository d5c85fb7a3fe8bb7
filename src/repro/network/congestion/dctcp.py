"""DCTCP congestion control (ECN-fraction based, per-window reaction).

DCTCP maintains an exponentially weighted estimate ``alpha`` of the fraction
of acknowledgements carrying ECN marks and, once per window, reduces the
congestion window by ``alpha / 2``.  Unmarked windows grow additively by one
packet per RTT.  Included both as a recognisable reference point and as the
"per-window" contrast to MPRDMA's per-packet reaction.
"""
from __future__ import annotations

from repro.network.congestion.base import CongestionControl


class DCTCP(CongestionControl):
    """Classic DCTCP window adaptation."""

    #: EWMA gain for the marking-fraction estimate.
    g: float = 1.0 / 16.0

    def __init__(self, mtu: int, initial_window_packets: int, base_rtt_ns: int) -> None:
        super().__init__(mtu, initial_window_packets, base_rtt_ns)
        self.alpha = 0.0
        self._acks_in_window = 0
        self._marks_in_window = 0

    def on_ack(self, acked_bytes: int, ecn_marked: bool, rtt_ns: int) -> int:
        acks = self._acks_in_window + 1
        marks = self._marks_in_window + 1 if ecn_marked else self._marks_in_window
        # additive increase spread over the window
        cwnd = self.cwnd
        cwnd += 1.0 / (cwnd if cwnd > 1.0 else 1.0)
        if acks >= cwnd:
            alpha = self.alpha = (1.0 - self.g) * self.alpha + self.g * (marks / acks)
            if marks:
                cwnd *= 1.0 - alpha / 2.0
            acks = marks = 0
        self._acks_in_window = acks
        self._marks_in_window = marks
        if cwnd < self.min_window:
            cwnd = self.min_window
        self.cwnd = cwnd
        return int(cwnd * self.mtu)

    def on_loss(self) -> None:
        self.cwnd /= 2.0
        self._clamp()
