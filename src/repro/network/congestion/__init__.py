"""Congestion-control algorithms for the packet-level backend.

The paper's case studies compare four classes of algorithms:

* :class:`~repro.network.congestion.mprdma.MPRDMA` — sender-based, per-packet
  ECN reaction (the baseline CC used for all validation runs),
* :class:`~repro.network.congestion.swift.Swift` — sender-based, end-to-end
  delay-driven (Fig. 1's case study shows its weakness on multi-hop
  congestion),
* :class:`~repro.network.congestion.dctcp.DCTCP` — sender-based, ECN fraction
  per window,
* :class:`~repro.network.congestion.ndp.NDPReceiverDriven` — receiver-driven
  (packet trimming + pull pacing), whose behaviour under ToR→core
  oversubscription is the subject of the storage case study (Fig. 11),
* :class:`~repro.network.congestion.fixed.FixedWindow` — a no-op control used
  for calibration and ablations.

Sender-based algorithms expose a common window interface
(:class:`~repro.network.congestion.base.CongestionControl`); NDP is flagged
via :attr:`receiver_driven` and handled specially by the packet backend.
"""
from repro.network.congestion.base import CongestionControl
from repro.network.congestion.mprdma import MPRDMA
from repro.network.congestion.swift import Swift
from repro.network.congestion.dctcp import DCTCP
from repro.network.congestion.ndp import NDPReceiverDriven
from repro.network.congestion.fixed import FixedWindow

_ALGORITHMS = {
    "mprdma": MPRDMA,
    "swift": Swift,
    "dctcp": DCTCP,
    "ndp": NDPReceiverDriven,
    "fixed": FixedWindow,
}


def congestion_control_names() -> tuple:
    """Names of all registered algorithms, in registration order.

    The single source for ``SimulationConfig.cc_algorithm`` validation and
    the CLI ``--cc`` choices: a new algorithm registers in ``_ALGORITHMS``
    and becomes selectable everywhere.
    """
    return tuple(_ALGORITHMS)


def create_congestion_control(name: str, mtu: int, initial_window_packets: int, base_rtt_ns: int) -> CongestionControl:
    """Instantiate the congestion-control algorithm ``name``.

    Parameters
    ----------
    name:
        One of :func:`congestion_control_names`.
    mtu:
        Packet payload size in bytes (window arithmetic is in packets of this
        size).
    initial_window_packets:
        Initial congestion window.
    base_rtt_ns:
        Unloaded round-trip time of the flow's path, used by delay-based
        algorithms as their target baseline.
    """
    try:
        cls = _ALGORITHMS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown congestion control algorithm {name!r}") from None
    return cls(mtu=mtu, initial_window_packets=initial_window_packets, base_rtt_ns=base_rtt_ns)


__all__ = [
    "CongestionControl",
    "MPRDMA",
    "Swift",
    "DCTCP",
    "NDPReceiverDriven",
    "FixedWindow",
    "congestion_control_names",
    "create_congestion_control",
]
