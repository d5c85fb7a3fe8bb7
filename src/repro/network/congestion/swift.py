"""Swift congestion control (sender-based, end-to-end delay driven).

Swift (Kumar et al., SIGCOMM'20) compares the measured end-to-end RTT against
a target delay and adjusts the window:

* RTT below target → additive increase (one packet per RTT, spread per ACK),
* RTT above target → multiplicative decrease proportional to the relative
  excess delay, bounded by ``max_mdf``, applied at most once per RTT.

Because Swift folds *all* queueing along the path into a single end-to-end
delay measurement, it cannot tell which hop is congested; the paper's Fig. 1
case study uses exactly this property to show a realistic AI workload where
Swift underperforms MPRDMA even though synthetic microbenchmarks show them
as equals.
"""
from __future__ import annotations

from repro.network.congestion.base import CongestionControl


class Swift(CongestionControl):
    """Delay-based AIMD with a fixed base-delay target."""

    #: Additive-increase gain in packets per RTT.
    ai: float = 1.0
    #: Multiplicative-decrease factor applied per unit of relative excess delay.
    beta: float = 0.8
    #: Upper bound on a single multiplicative decrease.
    max_mdf: float = 0.5
    #: Target delay as a multiple of the unloaded base RTT (the fabric
    #: component of Swift's target); keeping it conservative mirrors Swift's
    #: low-latency objective.
    target_factor: float = 1.25

    def __init__(self, mtu: int, initial_window_packets: int, base_rtt_ns: int) -> None:
        super().__init__(mtu, initial_window_packets, base_rtt_ns)
        self.target_delay_ns = max(1, int(self.target_factor * base_rtt_ns))
        self._last_decrease_rtt_count = 0
        self._acks_since_decrease = 0

    def on_ack(self, acked_bytes: int, ecn_marked: bool, rtt_ns: int) -> int:
        cwnd = self.cwnd
        acks = self._acks_since_decrease + 1
        target = self.target_delay_ns
        if rtt_ns <= target:
            # below target: additive increase (per-ACK share of one packet/RTT)
            cwnd += self.ai / (cwnd if cwnd > 1.0 else 1.0)
        elif acks >= cwnd:
            # above target: multiplicative decrease, paced to once per window
            factor = 1.0 - self.beta * ((rtt_ns - target) / rtt_ns)
            floor = 1.0 - self.max_mdf
            cwnd *= factor if factor > floor else floor
            acks = 0
        self._acks_since_decrease = acks
        if cwnd < self.min_window:
            cwnd = self.min_window
        self.cwnd = cwnd
        return int(cwnd * self.mtu)

    def on_loss(self) -> None:
        self.cwnd *= 1.0 - self.max_mdf
        self._clamp()
