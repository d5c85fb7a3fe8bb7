"""Control-plane convergence models: routing that heals over time.

The fault subsystem (:mod:`repro.network.faults`) flips link state at exact
simulated instants, and the routing layer historically consumed that state
as *oracle knowledge*: the cycle a link died, every flow was silently handed
a perfect alternate path.  Real fabrics do not work that way — the switches
adjacent to a failure detect it, originate withdrawals/advertisements, and
every other switch keeps forwarding on **stale tables** until the wave
reaches it.  Traffic entering the stale region falls into a black hole (or a
transient loop) and is lost until either the source's first-hop switch
reconverges or a retransmission timeout fires.

This module models that window explicitly.  A :class:`ControlPlane` gives
every switch a *local routing view* — the set of links it currently believes
failed — and, per fault event, computes when each switch *learns* of the
change by propagating an advertisement wave hop-by-hop over the surviving
switch graph with a configurable per-hop ``propagation_delay_ns`` plus a
per-switch ``processing_delay_ns``.  Two protocol families ship, registered
in :data:`CONTROL_PLANES` exactly like routing strategies in
:data:`~repro.network.routing.ROUTING_STRATEGIES`:

* ``"ls"`` (:class:`LinkStateControlPlane`) — link-state flooding: the
  switches adjacent to the event originate an LSA that floods outward; each
  hop costs one propagation delay plus one processing delay, and every
  reached switch re-floods exactly once per event (sequence numbers kill
  duplicates), so the message count is bounded by the alive directed
  switch-to-switch edge count,
* ``"dv"`` (:class:`DistanceVectorControlPlane`) — distance-vector: a
  switch only re-advertises after a full vector exchange with the upstream
  neighbour (withdraw + poisoned-reverse reply), so each hop of the wave
  costs **two** propagation+processing rounds and the message bound doubles.
  Split horizon with poisoned reverse keeps the wave loop-free, which is
  what the property suite's bounded-message assertion checks,
* ``"oracle"`` — no control plane is built (:func:`create_control_plane`
  returns ``None``): the routing layer reads the topology's failed set
  itself, so every switch knows a fault the instant it happens, with zero
  messages and zero time-to-recover.  ``SimulationConfig.control_plane``
  defaults to it.  It is *not* the zero-delay limit of ``"ls"``/``"dv"``:
  a learning switch re-hashes every flow it sources (ECMP table churn),
  and learn events at the fault instant run after the packets already
  queued there, so a zero-delay wave still differs from the oracle (see
  ``docs/control_plane.md``).

Each event yields a :class:`ConvergenceRecord` whose
``time_to_recover_ns`` is the span from the event to the instant the last
reachable switch's view caught up.  The packet backend drops packets that a
stale switch forwards into the failed region and counts them as
``packets_blackholed``; the LogGOPS backend ramps its capacity derate across
the same window instead of stepping it instantaneously (see
``docs/control_plane.md``).

Overlapping waves for the *same* link resolve in event order (identical
origins give identical wave shapes, so a later event's learn times dominate
an earlier one's at every switch); waves for disjoint links commute because
views are reference-counted like the topology's own failed-link state.

Because a wave is a pure function of (topology, protocol, fault event) —
it never reads traffic state — the sharded packet engine replays it
identically on every shard's full-topology replica: per-switch learn times,
``time_to_recover_ns``, ``packets_blackholed`` and the record list are
bit-identical between ``shards=1`` and any shard count (see
``docs/scaling.md``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.network.faults import LINK_DOWN, SWITCH_DRAIN

if TYPE_CHECKING:  # avoid importing numpy-heavy topology at module import
    from repro.network.topology.base import FailedLinks, Topology


@dataclass(frozen=True)
class ConvergenceRecord:
    """Bookkeeping for one fault event's convergence wave.

    Attributes
    ----------
    time_ns:
        When the fault event fired.
    kind:
        The fault event kind (``link_down`` / ``link_up`` / drains).
    link_ids:
        The resolved link ids the event flipped.
    converged_at_ns:
        When the last reachable switch's local view caught up with the event.
    messages:
        Protocol messages exchanged by the wave.
    protocol:
        Name of the control plane that produced the record.
    """

    time_ns: int
    kind: str
    link_ids: Tuple[int, ...]
    converged_at_ns: int
    messages: int
    protocol: str

    @property
    def time_to_recover_ns(self) -> int:
        """Convergence window: last stale switch's catch-up minus event time."""
        return self.converged_at_ns - self.time_ns


class ControlPlane:
    """Base class: per-switch routing views plus a learn-time wave model.

    Parameters
    ----------
    topology:
        The :class:`~repro.network.topology.base.Topology` whose switches
        hold views.  Views are initialised to the topology's *current*
        failed-link state, so a control plane created after static failures
        are applied starts converged (switches boot with the truth).
    propagation_delay_ns:
        Wire delay of one advertisement hop between adjacent switches.
    processing_delay_ns:
        Per-switch cost to process an update and recompute its table (also
        charged at the originating switches as detection/recompute time).
    """

    name = "base"
    #: Vector-exchange rounds one wave hop costs (1 = flooding; the
    #: distance-vector protocol pays a withdraw + poisoned-reverse reply).
    rounds_per_hop = 1

    def __init__(
        self,
        topology: "Topology",
        propagation_delay_ns: int = 500,
        processing_delay_ns: int = 100,
    ) -> None:
        if propagation_delay_ns < 0 or processing_delay_ns < 0:
            raise ValueError("control-plane delays must be non-negative")
        self.topology = topology
        self.propagation_delay_ns = int(propagation_delay_ns)
        self.processing_delay_ns = int(processing_delay_ns)
        # directed switch-to-switch adjacency: switch -> [(link_id, neighbor)]
        self._adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for link in topology.links:
            if topology.is_host(link.src) or topology.is_host(link.dst):
                continue
            self._adjacency.setdefault(link.src, []).append((link.link_id, link.dst))
            self._adjacency.setdefault(link.dst, [])
        # single-switch fabrics have no switch-to-switch edge; the lone
        # switch (every host's attachment) still holds a view
        for dev in range(topology.num_hosts, topology.num_devices):
            self._adjacency.setdefault(dev, [])
        # local views: believed-failed links, reference-counted like the
        # topology's own failed set so overlapping causes compose.  Every
        # switch boots with the failed set of now; a switch gets a view of
        # its own when it first learns an event (LogGOPS never applies one)
        self._boot = topology.failed.copy()
        self._views: Dict[int, "FailedLinks"] = {}

    # -- protocol hook -------------------------------------------------------
    def _hop_cost(self) -> int:
        """Cost of advancing the wave one switch hop."""
        return self.rounds_per_hop * (
            self.propagation_delay_ns + self.processing_delay_ns
        )

    # -- wave computation ----------------------------------------------------
    def _origin_switches(self, link_ids: Sequence[int]) -> List[int]:
        """Switch endpoints of the flipped links (they detect the event)."""
        topology = self.topology
        origins: List[int] = []
        seen: Set[int] = set()
        for link_id in link_ids:
            link = topology.links[link_id]
            for dev in (link.src, link.dst):
                if not topology.is_host(dev) and dev not in seen:
                    seen.add(dev)
                    origins.append(dev)
        return origins

    def learn_times(
        self, origins: Sequence[int], event_time: int
    ) -> Tuple[Dict[int, int], int]:
        """Per-switch learn times of one advertisement wave, plus messages.

        The wave is a breadth-first expansion from ``origins`` over the
        *surviving* switch graph (advertisements cannot cross a link that is
        currently down — the failure being advertised included).  Every
        reached switch learns at ``event_time + processing + level *
        hop_cost`` and re-advertises exactly once, so the message count is
        ``rounds_per_hop`` per alive out-edge of every reached switch —
        bounded, never looping (the property suite locks this in).
        Switches cut off from every origin are absent from the result: they
        can never learn, and no traffic can reach the failed region through
        them either.
        """
        failed = self.topology.failed_links
        hop_cost = self._hop_cost()
        base = event_time + self.processing_delay_ns
        learn: Dict[int, int] = {}
        messages = 0
        frontier = [sw for sw in origins if sw in self._adjacency]
        for sw in frontier:
            learn[sw] = base
        level = 0
        while frontier:
            level += 1
            nxt: List[int] = []
            for sw in frontier:
                for link_id, neighbor in self._adjacency[sw]:
                    if link_id in failed:
                        continue
                    messages += self.rounds_per_hop
                    if neighbor not in learn:
                        learn[neighbor] = base + level * hop_cost
                        nxt.append(neighbor)
            frontier = nxt
        return learn, messages

    def originate(
        self, event_time: int, kind: str, link_ids: Sequence[int]
    ) -> Tuple[ConvergenceRecord, Dict[int, int]]:
        """Originate advertisements for one fault event.

        Returns the event's :class:`ConvergenceRecord` and the per-switch
        learn times the caller schedules view updates (and route re-picks)
        at.  Call *after* the topology's link state has been flipped, so the
        wave propagates over the post-event surviving graph.
        """
        origins = self._origin_switches(link_ids)
        learn, messages = self.learn_times(origins, event_time)
        converged = max(learn.values()) if learn else event_time
        record = ConvergenceRecord(
            time_ns=event_time,
            kind=kind,
            link_ids=tuple(link_ids),
            converged_at_ns=converged,
            messages=messages,
            protocol=self.name,
        )
        return record, learn

    # -- view maintenance ----------------------------------------------------
    def apply(self, switches: Sequence[int], kind: str, link_ids: Sequence[int]) -> None:
        """Update the local views of ``switches`` with one learned event."""
        fail = kind in (LINK_DOWN, SWITCH_DRAIN)
        views = self._views
        for sw in switches:
            view = views.get(sw)
            if view is None:
                view = views[sw] = self._boot.copy()
            view.change(fail, link_ids)

    def view_key(self, switch: int) -> frozenset:
        """The switch's believed-failed link ids as a memoized frozenset."""
        return self._views.get(switch, self._boot).key()

    def knows(self, switch: int, route: Tuple[int, ...], hop: int) -> bool:
        """Whether ``switch`` knows the first dead link on ``route[hop:]``.

        The packet backend calls this at the forwarding point where a
        packet's remaining hops cross failed links: a switch that has
        learned of the failure repairs locally (like the oracle), one that
        has not forwards into the black hole.
        """
        if switch not in self._adjacency:
            return True
        view = self._views.get(switch, self._boot)
        failed = self.topology.failed_links
        for link in route[hop:]:
            if link in failed:
                return link in view
        return True


class LinkStateControlPlane(ControlPlane):
    """Link-state flooding (OSPF-style LSAs): one round per wave hop."""

    name = "ls"
    rounds_per_hop = 1


class DistanceVectorControlPlane(ControlPlane):
    """Distance-vector with split horizon: two rounds per wave hop.

    A DV speaker cannot re-advertise a withdrawn route until the full
    vector exchange with its upstream neighbour completes (withdraw plus the
    poisoned-reverse reply), so the wave advances at half the flooding speed
    and exchanges twice the messages — the classic convergence gap between
    the two protocol families, reproduced here as a factor-two hop cost.
    """

    name = "dv"
    rounds_per_hop = 2


#: The default ``control_plane``: no plane is built (see the module docstring).
ORACLE = "oracle"

CONTROL_PLANES: Dict[str, Type[ControlPlane]] = {
    LinkStateControlPlane.name: LinkStateControlPlane,
    DistanceVectorControlPlane.name: DistanceVectorControlPlane,
}


def register_control_plane(cls: Type[ControlPlane]) -> Type[ControlPlane]:
    """Register a protocol class under ``cls.name`` (usable as a decorator)."""
    CONTROL_PLANES[cls.name] = cls
    return cls


def control_plane_names() -> Tuple[str, ...]:
    """Every valid ``control_plane`` value (sorted): the registered protocols and the oracle."""
    return tuple(sorted((ORACLE, *CONTROL_PLANES)))


def create_control_plane(
    name: str,
    topology: "Topology",
    propagation_delay_ns: int = 500,
    processing_delay_ns: int = 100,
) -> Optional[ControlPlane]:
    """Construct the registered protocol ``name`` bound to a topology.

    ``"oracle"`` builds none and returns ``None``.
    """
    if name == ORACLE:
        return None
    try:
        cls = CONTROL_PLANES[name]
    except KeyError:
        raise ValueError(
            f"unknown control plane {name!r} "
            f"(registered: {', '.join(control_plane_names())})"
        ) from None
    return cls(
        topology,
        propagation_delay_ns=propagation_delay_ns,
        processing_delay_ns=processing_delay_ns,
    )


__all__ = [
    "CONTROL_PLANES",
    "ControlPlane",
    "ConvergenceRecord",
    "DistanceVectorControlPlane",
    "LinkStateControlPlane",
    "ORACLE",
    "control_plane_names",
    "create_control_plane",
    "register_control_plane",
]
