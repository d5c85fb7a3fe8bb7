"""Convergence metrics: time-to-recover and blackhole-loss summaries.

The control-plane subsystem (:mod:`repro.network.control_plane`) emits one
:class:`~repro.network.control_plane.ConvergenceRecord` per fault event; the
backends fold the worst window into ``NetworkStats.time_to_recover_ns`` and
count stale-forwarded losses as ``packets_blackholed``.  This module turns
those raw outputs into the summary metrics the resilience studies report —
the honest availability numbers ROADMAP item 4 asks for, which the oracle
model structurally cannot produce (its TTR is identically zero).

Metric definitions (also in ``docs/control_plane.md``):

* **time_to_recover_ns** — per event, the span from the fault instant to
  the moment the *last* reachable switch's local view absorbed it; the
  summary reports the worst and the mean over all events.
* **blackhole_fraction** — packets dropped by stale switches during
  convergence over all packets sent: the probability an injected packet
  died in a black hole rather than reaching its destination or a queue.
* **convergence_messages** — protocol messages the advertisement waves
  exchanged (flooding: one per alive directed switch edge per event;
  distance-vector: two), the control-plane load metric the property suite
  bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.network.backend import NetworkStats
    from repro.network.control_plane import ConvergenceRecord


@dataclass(frozen=True)
class ConvergenceSummary:
    """Aggregate convergence behaviour of one simulation run.

    Attributes
    ----------
    events:
        Fault events that triggered an advertisement wave.
    worst_ttr_ns / mean_ttr_ns:
        Worst and mean per-event time-to-recover (0 when no event fired,
        and always 0 under the oracle control plane).
    convergence_messages:
        Total protocol messages exchanged by all waves.
    packets_blackholed:
        Packets dropped by stale switches during convergence windows.
    packets_sent:
        All packets injected by the run (the blackhole denominator).
    """

    events: int
    worst_ttr_ns: int
    mean_ttr_ns: float
    convergence_messages: int
    packets_blackholed: int
    packets_sent: int

    @property
    def blackhole_fraction(self) -> float:
        """Share of injected packets lost into black holes (0 when idle)."""
        if not self.packets_sent:
            return 0.0
        return self.packets_blackholed / self.packets_sent


def summarize_convergence(
    records: Sequence["ConvergenceRecord"], stats: "NetworkStats"
) -> ConvergenceSummary:
    """Summarize a run's convergence records against its statistics.

    ``records`` is a result's ``convergence_records`` (empty under the
    oracle control plane) and ``stats`` the same result's ``stats``.  The
    message-level backend reports ``packets_sent == 0``, so
    its summaries carry TTR and message counts but a zero blackhole
    fraction — blackholes are a packet-level observable.
    """
    ttrs = [r.time_to_recover_ns for r in records]
    return ConvergenceSummary(
        events=len(records),
        worst_ttr_ns=max(ttrs) if ttrs else 0,
        mean_ttr_ns=sum(ttrs) / len(ttrs) if ttrs else 0.0,
        convergence_messages=sum(r.messages for r in records),
        packets_blackholed=stats.packets_blackholed,
        packets_sent=stats.packets_sent,
    )


__all__ = [
    "ConvergenceSummary",
    "summarize_convergence",
]
