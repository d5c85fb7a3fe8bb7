"""Pluggable routing strategies shared by the simulation backends.

A :class:`RoutingStrategy` turns the *candidate* routes a topology exposes
into the single route a message actually takes.  Both backends consult the
strategy once per message at injection time (the packet backend source-routes
every packet of a flow along the chosen route; the message-level backend uses
the chosen route's propagation latency in place of a flat ``L``), which makes
the adaptive strategy a UGAL-style *injection-time* decision rather than a
per-hop one.

Three strategies ship with the toolchain:

* :class:`MinimalRouting` — ECMP over the topology's minimal candidates
  (the behaviour the backends hard-wired before this module existed),
* :class:`ValiantRouting` — Valiant load balancing: bounce through a random
  intermediate, trading path length for load uniformity on adversarial
  traffic,
* :class:`AdaptiveRouting` — UGAL-style choice between the best minimal and
  the best Valiant candidate, weighted by current link load x path length.

Strategies are registered in :data:`ROUTING_STRATEGIES` and constructed via
:func:`create_routing`; ``SimulationConfig.routing`` selects one by name.

Link load is supplied by the backend as anything indexable by link id,
and a strategy reads it only for the links of the candidates it costs: the
packet backend passes a view whose ``view[l]`` is link ``l``'s queue
occupancy now, the sharded packet engine its barrier snapshot array, and
the LogGOPS backend its list of cumulative bytes routed.

Fault awareness
---------------
When the topology carries failed links (see :mod:`repro.network.faults`),
every strategy filters its candidates — minimal and Valiant alike — through
the topology's alive-filtered route tables.  Valiant and adaptive routing
detour a pair whose minimal candidates all died, through
:meth:`RoutingStrategy._detour` when none of the drawn detours survives
either, so only a pair that no candidate of either kind survives raises
:class:`~repro.network.faults.NetworkPartitionError`.
On a healthy fabric the filter is a single boolean read, and the selected
routes (and RNG consumption) are exactly those of the pre-fault code paths.

Hot path
--------
Minimal routing on a healthy fabric, and each leg of a base Valiant detour,
draws its route through
:meth:`~repro.network.topology.base.Topology.pick_minimal` — on a fat tree a
closed form that touches no table.  Otherwise strategies read the
topology's lazily built, LRU-bounded route tables: a pair's table is its
tuple of candidate routes.  UGAL has one cost formula, :func:`ugal_cost`,
applied to the minimal and the Valiant candidates alike, so a decision
reads the load of at most the links of the candidates it weighs (the
``routes()``-based scalar formulation is the oracle in
``tests/differential.py``).  Cache eviction is invisible here — an evicted
table is rebuilt bit-identically (from structural synthesis or the
enumeration reference, per ``SimulationConfig.route_synthesis``) on the
next lookup, so strategies never observe cache state (see docs/scaling.md).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Type

from repro.network.faults import NetworkPartitionError
from repro.network.topology.base import Topology, pick_route

if TYPE_CHECKING:  # the generator type only; routing needs no numpy
    import numpy as np

Route = Tuple[int, ...]
#: Link load in bytes: anything indexable by link id.
LinkLoad = Any


def ugal_cost(route: Route, link_load: LinkLoad) -> int:
    """UGAL cost of ``route``: ``(1 + bytes queued along it) x hops``.

    Reads ``link_load`` only at the route's own links.
    """
    return (1 + sum(map(link_load.__getitem__, route))) * len(route)


class RoutingStrategy:
    """Base class: selects one route per message from a topology's candidates.

    Parameters
    ----------
    topology:
        The :class:`~repro.network.topology.base.Topology` to route on.
    rng:
        Shared ``numpy`` generator (tie-breaking and random intermediates).
    """

    name = "base"

    #: Whether :meth:`select_route` consults ``link_load``; backends skip
    #: building the load view for strategies that never read it.
    needs_link_load = False

    def __init__(self, topology: Topology, rng: np.random.Generator) -> None:
        self.topology = topology
        self.rng = rng

    def select_route(
        self,
        src: int,
        dst: int,
        size: int = 0,
        link_load: Optional[LinkLoad] = None,
        view: Optional[frozenset] = None,
    ) -> Route:
        """Return the route (tuple of link ids) a ``size``-byte message takes.

        ``link_load`` maps a link id to that link's current load in bytes
        (see the module docstring); strategies that ignore congestion may
        disregard it, and the others read it only at the links of the
        candidates they cost.
        ``view``, when given, is the source's first-hop switch's *believed*
        failed-link set (control-plane convergence: the selection filters by
        the stale belief instead of the topology's true fault state, so the
        chosen route may cross an actually-dead link).  ``None`` — the only
        value ever passed outside ``control_plane="dv"|"ls"`` runs — selects
        against the true fault state.
        """
        raise NotImplementedError

    # -- helpers shared by subclasses ---------------------------------------
    def _candidates(
        self, src: int, dst: int, view: Optional[frozenset] = None
    ) -> Sequence[Route]:
        """The pair's minimal candidates under the fault state.

        On a faulty fabric (failed links present) the candidates are read
        through the topology's alive-filtered tables — candidate order is
        preserved, and a fully disconnected pair raises
        :class:`~repro.network.faults.NetworkPartitionError`.
        With a control-plane ``view`` the believed-failed filter replaces
        the truth filter (see :meth:`Topology.view_table`).
        """
        topology = self.topology
        if view is not None:
            return topology.view_table(src, dst, view)
        if topology.faulty:
            return topology.alive_table(src, dst)
        return topology.route_table(src, dst)

    def _alive_valiant(
        self, src: int, dst: int, count: int, view: Optional[frozenset] = None
    ) -> Sequence[Route]:
        """Valiant candidates filtered to routes that survive current faults.

        With a control-plane ``view`` the filter is the believed-failed set
        instead of the truth.
        """
        topology = self.topology
        candidates = topology.valiant_routes(src, dst, self.rng, count=count)
        if view is None:
            if not topology.faulty:
                return candidates
            view = topology.failed_links
        # a filter that kills every detour yields no Valiant candidates:
        # the caller falls back to the pair's minimal candidates
        return tuple(r for r in candidates if not any(link in view for link in r))

    def _pick(self, candidates: Sequence[Route]) -> Route:
        """Uniform random choice, consuming randomness only on real choices."""
        return pick_route(candidates, self.rng)

    def _detour(
        self, src: int, dst: int, view: Optional[frozenset], error: NetworkPartitionError
    ) -> Route:
        """A surviving detour for a pair whose minimal candidates and drawn detours all died.

        Scans the intermediate hosts from a random one on and, at the first
        that both legs survive to, joins a random surviving candidate of
        each; raises ``error`` (the pair's partition) when there is none.
        """
        topology = self.topology
        failed = topology.failed_links if view is None else view
        hosts = topology.num_hosts
        first = int(self.rng.integers(hosts))
        for step in range(hosts):
            via = (first + step) % hosts
            if via == src or via == dst:
                continue
            legs = [
                [route for route in topology.route_table(a, b) if failed.isdisjoint(route)]
                for a, b in ((src, via), (via, dst))
            ]
            if legs[0] and legs[1]:
                return self._pick(legs[0]) + self._pick(legs[1])
        raise error


class MinimalRouting(RoutingStrategy):
    """ECMP over the topology's minimal candidate routes.

    On a healthy fabric (no failed link, no control-plane view) with route
    synthesis on — the default — the draw is table-free:
    :meth:`Topology.pick_minimal` computes the chosen candidate alone (fat
    trees; other topologies' hook still indexes the pair's table).  Every
    other configuration reads the candidate tables, which are the
    bit-identical reference for the closed form.
    """

    name = "minimal"

    def select_route(
        self,
        src: int,
        dst: int,
        size: int = 0,
        link_load: Optional[LinkLoad] = None,
        view: Optional[frozenset] = None,
    ) -> Route:
        topology = self.topology
        if view is None and topology.use_synthesis and not topology.faulty:
            return topology.pick_minimal(src, dst, self.rng)
        return self._pick(self._candidates(src, dst, view))


class ValiantRouting(RoutingStrategy):
    """Valiant load balancing: minimal route to a random intermediate, then on.

    Topologies override :meth:`~repro.network.topology.base.Topology.
    valiant_routes` to bounce through an intermediate *switch* where that is
    natural (torus, Slim Fly); the base implementation joins two ECMP draws
    (:meth:`~repro.network.topology.base.Topology.pick_minimal`) through a
    random intermediate host.  Pairs with no non-minimal candidate (e.g.
    two hosts on a single switch) fall back to minimal.
    """

    name = "valiant"

    def __init__(
        self, topology: Topology, rng: np.random.Generator, count: int = 4
    ) -> None:
        super().__init__(topology, rng)
        self.count = count

    def select_route(
        self,
        src: int,
        dst: int,
        size: int = 0,
        link_load: Optional[LinkLoad] = None,
        view: Optional[frozenset] = None,
    ) -> Route:
        candidates = self._alive_valiant(src, dst, self.count, view)
        if candidates:
            return self._pick(candidates)
        try:
            return self._pick(self._candidates(src, dst, view))
        except NetworkPartitionError as error:
            return self._detour(src, dst, view, error)


class AdaptiveRouting(RoutingStrategy):
    """UGAL-style adaptive routing.

    Compares the least-cost minimal candidate against the least-cost Valiant
    candidate, where cost is ``(1 + queued bytes along the route) x hops``,
    and takes the minimal route on ties — so an idle network routes
    minimally and a congested one spills onto non-minimal paths exactly when
    the detour is cheaper than the queueing.

    Both candidate sets are costed by the one formula :func:`ugal_cost`, so
    a decision reads ``link_load`` at most once per link of each candidate
    it weighs and never at the rest of the fabric.  Cost-tied minimal
    candidates are drawn from at random, which keeps ECMP spreading alive
    when loads are equal (e.g. at an idle start).

    Under the sharded packet engine (``SimulationConfig.shards > 1``) the
    live ``link_load`` view is replaced by **barrier load snapshots**
    merged from all shards every minimum link latency of the topology.
    Decisions then read a slightly stale global view — a documented
    approximation whose semantics depend only on the topology, never on the
    shard layout, so sharded runs stay bit-identical across shard counts
    (see ``docs/scaling.md``).
    """

    name = "adaptive"
    needs_link_load = True

    def __init__(
        self, topology: Topology, rng: np.random.Generator, count: int = 2
    ) -> None:
        super().__init__(topology, rng)
        self.count = count

    def select_route(
        self,
        src: int,
        dst: int,
        size: int = 0,
        link_load: Optional[LinkLoad] = None,
        view: Optional[frozenset] = None,
    ) -> Route:
        try:
            minimal = self._candidates(src, dst, view)
        except NetworkPartitionError as error:
            # every minimal candidate is dead: the cheapest surviving detour
            valiant = self._alive_valiant(src, dst, self.count, view)
            if not valiant:
                return self._detour(src, dst, view, error)
            if link_load is None:
                return min(valiant, key=len)
            return min(valiant, key=lambda route: ugal_cost(route, link_load))
        if link_load is None:
            costs = [len(r) for r in minimal]
        else:
            costs = [ugal_cost(r, link_load) for r in minimal]
        min_cost = min(costs)
        best_min = self._pick([r for r, c in zip(minimal, costs) if c == min_cost])
        if link_load is None:
            return best_min
        valiant = self._alive_valiant(src, dst, self.count, view)
        if not valiant:
            return best_min
        # the first minimum wins among Valiant candidates
        val_costs = [ugal_cost(r, link_load) for r in valiant]
        best_i = min(range(len(valiant)), key=val_costs.__getitem__)
        if val_costs[best_i] < min_cost:
            return valiant[best_i]
        return best_min


ROUTING_STRATEGIES: Dict[str, Type[RoutingStrategy]] = {
    MinimalRouting.name: MinimalRouting,
    ValiantRouting.name: ValiantRouting,
    AdaptiveRouting.name: AdaptiveRouting,
}


def register_routing(cls: Type[RoutingStrategy]) -> Type[RoutingStrategy]:
    """Register a strategy class under ``cls.name`` (usable as a decorator)."""
    ROUTING_STRATEGIES[cls.name] = cls
    return cls


def routing_names() -> Tuple[str, ...]:
    """Names of all registered routing strategies (sorted)."""
    return tuple(sorted(ROUTING_STRATEGIES))


def create_routing(name: str, topology: Topology, rng: np.random.Generator, **kwargs) -> RoutingStrategy:
    """Construct the registered strategy ``name`` bound to a topology."""
    try:
        cls = ROUTING_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing strategy {name!r} (registered: {', '.join(routing_names())})"
        ) from None
    return cls(topology, rng, **kwargs)
