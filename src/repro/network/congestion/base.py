"""Common interface of window-based congestion-control algorithms.

The packet backend keeps one instance per flow.  The window is maintained in
(fractional) packets of ``mtu`` bytes.  The backend feeds back one
:meth:`on_ack` per acknowledged data packet, which returns the new window in
bytes (the injection loop's budget until the next ACK), and one
:meth:`on_loss` per detected loss (timeout or trim-NACK).
"""
from __future__ import annotations


class CongestionControl:
    """Base class: a fixed window that subclasses adapt on feedback."""

    #: Receiver-driven algorithms (NDP) bypass the sender window entirely once
    #: the initial window has been sent; the backend checks this flag.
    receiver_driven: bool = False

    #: Minimum congestion window in packets.
    min_window: float = 1.0

    def __init__(self, mtu: int, initial_window_packets: int, base_rtt_ns: int) -> None:
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        if initial_window_packets <= 0:
            raise ValueError("initial_window_packets must be positive")
        if base_rtt_ns < 0:
            raise ValueError("base_rtt_ns must be non-negative")
        self.mtu = mtu
        self.base_rtt_ns = base_rtt_ns
        self.cwnd = float(initial_window_packets)
        self.initial_window_packets = initial_window_packets

    # -- queries -------------------------------------------------------------
    def window_bytes(self) -> int:
        """Current congestion window in bytes."""
        return int(self.cwnd * self.mtu)

    def can_send(self, inflight_bytes: int) -> bool:
        """True when another MTU-sized packet fits in the window."""
        return inflight_bytes + self.mtu <= self.window_bytes() or inflight_bytes == 0

    # -- feedback ------------------------------------------------------------
    def on_ack(self, acked_bytes: int, ecn_marked: bool, rtt_ns: int) -> int:
        """Per-acknowledgement feedback; returns :meth:`window_bytes` after it.

        The base class does not adapt.  Subclasses run once per delivered
        data packet, so they read and write ``cwnd`` once and clamp inline.
        """
        return int(self.cwnd * self.mtu)

    def on_loss(self) -> None:
        """A loss (timeout or NACK) was detected; the base class does nothing."""

    # -- helpers for subclasses -----------------------------------------------
    def _clamp(self) -> None:
        if self.cwnd < self.min_window:
            self.cwnd = self.min_window

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cwnd={self.cwnd:.2f} pkts)"
