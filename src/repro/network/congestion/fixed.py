"""Fixed-window "congestion control" (no reaction).

Keeps the initial window forever.  Used for calibration runs, ablations and
tests that need a congestion-oblivious packet-level baseline.
"""
from __future__ import annotations

from repro.network.congestion.base import CongestionControl


class FixedWindow(CongestionControl):
    """A static window; losses still collapse it to avoid livelock."""

    def on_loss(self) -> None:
        # shrink to keep retransmissions from amplifying persistent overload
        self.cwnd = max(self.min_window, self.cwnd / 2.0)
