"""MPRDMA congestion control (sender-based, per-packet ECN reaction).

MPRDMA (Lu et al., NSDI'18) reacts to ECN marks on a per-packet basis, "akin
to DCTCP but operating on a per-packet basis" (paper §6.1):

* every acknowledgement carrying an ECN mark shrinks the window by half a
  packet,
* every unmarked acknowledgement grows the window additively by ``1/cwnd``
  packets (one packet per round trip),
* a detected loss collapses the window to the minimum.

This is the congestion control the paper uses for every validation run of
the htsim backend.
"""
from __future__ import annotations

from repro.network.congestion.base import CongestionControl


class MPRDMA(CongestionControl):
    """Per-packet ECN AIMD."""

    #: Multiplicative-ish decrease applied per marked ACK, in packets.
    decrease_per_mark: float = 0.5
    #: Additive increase per unmarked ACK is ``increase_gain / cwnd`` packets.
    increase_gain: float = 1.0

    def on_ack(self, acked_bytes: int, ecn_marked: bool, rtt_ns: int) -> int:
        cwnd = self.cwnd
        if ecn_marked:
            cwnd -= self.decrease_per_mark
        else:
            cwnd += self.increase_gain / (cwnd if cwnd > 1.0 else 1.0)
        if cwnd < self.min_window:
            cwnd = self.min_window
        self.cwnd = cwnd
        return int(cwnd * self.mtu)

    def on_loss(self) -> None:
        self.cwnd = self.min_window
