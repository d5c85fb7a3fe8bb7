"""NDP: receiver-driven transport with packet trimming and pull pacing.

NDP (Handley et al., SIGCOMM'17) differs structurally from the sender-based
algorithms:

* the sender blasts its *initial window* at line rate without waiting for
  feedback,
* switches *trim* data packets to headers instead of dropping them when a
  queue overflows, so the receiver learns about every packet that was sent,
* all further transmissions (retransmissions of trimmed packets and new
  data) are clocked by *pull* credits that the receiver emits, paced at its
  own link rate.

Because the pull pacer only protects the receiver's downlink, congestion in
the network core — e.g. on oversubscribed ToR→core uplinks — is invisible to
it; the paper's Fig. 11 storage case study shows exactly this failure mode.

The mechanics (trimming, NACKs, the per-host pull pacer) live in the packet
backend; this class only carries NDP's identity and tuning parameters, and
reports ``receiver_driven = True`` so the backend switches modes.
"""
from __future__ import annotations

from repro.network.congestion.base import CongestionControl


class NDPReceiverDriven(CongestionControl):
    """Marker/parameter object for receiver-driven NDP flows."""

    receiver_driven = True

    #: Size in bytes of a trimmed header (and of pull/NACK control packets).
    header_size: int = 64

    def on_loss(self) -> None:
        # Losses surface as trims/NACKs handled by the pull loop.
        return
