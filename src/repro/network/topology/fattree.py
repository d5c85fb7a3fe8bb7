"""Two-level fat-tree (leaf/spine) topology with configurable oversubscription.

This is the topology used throughout the paper's evaluation and case studies:
hosts attach to ToR (leaf) switches; every ToR connects to every core (spine)
switch.  The oversubscription ratio is the ratio between the aggregate
downlink bandwidth of a ToR (``nodes_per_tor`` host links) and its aggregate
uplink bandwidth (``num_cores`` core links):

* ``oversubscription = 1`` — fully provisioned: as many uplinks as hosts per
  ToR (paper's "No Oversubscription"),
* ``oversubscription = 4`` — four hosts share one uplink (paper Fig. 12/13),
* ``oversubscription = 8`` — eight hosts share one uplink (paper Fig. 11).

Traffic between hosts under the same ToR never touches the core; inter-ToR
traffic is ECMP-balanced over all core switches.
"""
from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.network.topology.base import Topology


class FatTreeTopology(Topology):
    """Two-level fat tree.

    Parameters
    ----------
    num_hosts:
        Number of endpoints.
    nodes_per_tor:
        Hosts attached to each ToR switch.
    oversubscription:
        Downlink:uplink bandwidth ratio per ToR (>= 1).  The number of core
        switches (= uplinks per ToR) is
        ``max(1, round(nodes_per_tor / oversubscription))``.
    bandwidth / latency:
        Applied to every link (host links and core links alike), matching the
        uniform-speed fat trees used in the paper.
    """

    def __init__(
        self,
        num_hosts: int,
        nodes_per_tor: int = 16,
        oversubscription: float = 1.0,
        bandwidth: float = 25.0,
        latency: int = 500,
    ) -> None:
        super().__init__(num_hosts)
        if nodes_per_tor <= 0:
            raise ValueError("nodes_per_tor must be positive")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")
        self.nodes_per_tor = nodes_per_tor
        self.num_tors = self._num_tors()
        self.num_cores = max(1, int(round(nodes_per_tor / oversubscription)))
        self.oversubscription = nodes_per_tor / self.num_cores

        self.tor_switches: List[int] = [self._new_device() for _ in range(self.num_tors)]
        self.core_switches: List[int] = [self._new_device() for _ in range(self.num_cores)]

        # host <-> ToR links
        self._host_up: Dict[int, int] = {}
        self._host_down: Dict[int, int] = {}
        for h in range(num_hosts):
            tor = self.tor_switches[self.tor_of(h)]
            up, down = self._add_duplex(
                h, tor, bandwidth, latency, f"host{h}->tor{self.tor_of(h)}", f"tor{self.tor_of(h)}->host{h}"
            )
            self._host_up[h] = up
            self._host_down[h] = down

        # ToR <-> core links
        self._tor_up: Dict[Tuple[int, int], int] = {}
        self._tor_down: Dict[Tuple[int, int], int] = {}
        for t in range(self.num_tors):
            for c in range(self.num_cores):
                up, down = self._add_duplex(
                    self.tor_switches[t],
                    self.core_switches[c],
                    bandwidth,
                    latency,
                    f"tor{t}->core{c}",
                    f"core{c}->tor{t}",
                )
                self._tor_up[(t, c)] = up
                self._tor_down[(t, c)] = down

    def _num_tors(self) -> int:
        """ToR count; the rail-optimized variant overrides (pods × rails)."""
        return math.ceil(self.num_hosts / self.nodes_per_tor)

    def tor_of(self, host: int) -> int:
        """Index of the ToR switch ``host`` is attached to."""
        return host // self.nodes_per_tor

    def routes(self, src_host: int, dst_host: int) -> Sequence[Tuple[int, ...]]:
        """Enumeration reference: candidates read from the built link maps."""
        if src_host == dst_host:
            raise ValueError("no route from a host to itself")
        src_tor = self.tor_of(src_host)
        dst_tor = self.tor_of(dst_host)
        up = self._host_up[src_host]
        down = self._host_down[dst_host]
        if src_tor == dst_tor:
            return ((up, down),)
        return tuple(
            (up, self._tor_up[(src_tor, c)], self._tor_down[(dst_tor, c)], down)
            for c in range(self.num_cores)
        )

    def synthesized_routes(self, src_host: int, dst_host: int) -> Sequence[Tuple[int, ...]]:
        """Structural synthesis: link ids in closed form from coordinates.

        Link ids follow directly from construction order — host duplex pairs
        first in host order (uplink ``2h``, downlink ``2h + 1``), then
        ToR–core duplex pairs nested ToR-major (uplink
        ``2·num_hosts + 2·(t·num_cores + c)``, downlink one above) — so no
        per-pair state is consulted at all.  Shared by the multi-plane and
        rail-optimized variants, which keep the same construction order and
        only reshape ``tor_of`` / the core tier.
        """
        if src_host == dst_host:
            raise ValueError("no route from a host to itself")
        up = 2 * src_host
        down = 2 * dst_host + 1
        src_tor = self.tor_of(src_host)
        dst_tor = self.tor_of(dst_host)
        if src_tor == dst_tor:
            return ((up, down),)
        num_cores = self.num_cores
        core_base = 2 * self.num_hosts
        src_up = core_base + 2 * src_tor * num_cores
        dst_down = core_base + 2 * dst_tor * num_cores + 1
        return tuple(
            (up, src_up + 2 * c, dst_down + 2 * c, down) for c in range(num_cores)
        )

    def pick_minimal(self, src_host: int, dst_host: int, rng) -> Tuple[int, ...]:
        """Closed-form ECMP draw: the core index is drawn, never the candidate set."""
        if src_host == dst_host:
            raise ValueError("no route from a host to itself")
        src_tor = self.tor_of(src_host)
        dst_tor = self.tor_of(dst_host)
        if src_tor == dst_tor:
            return (2 * src_host, 2 * dst_host + 1)
        n = self.num_cores
        core = 2 * (self.num_hosts + (int(rng.integers(n)) if n > 1 else 0))
        return (
            2 * src_host,
            core + 2 * src_tor * n,
            core + 2 * dst_tor * n + 1,
            2 * dst_host + 1,
        )

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d.update(
            {
                "num_tors": self.num_tors,
                "num_cores": self.num_cores,
                "nodes_per_tor": self.nodes_per_tor,
                "oversubscription": self.oversubscription,
            }
        )
        return d


class MultiPlaneFatTreeTopology(FatTreeTopology):
    """Fat tree whose core tier is split into independent planes.

    Real AI clusters deploy the spine as several parallel *planes* that can
    be drained, upgraded, or lost as a unit.  Each ToR spreads its uplinks
    evenly over the planes: with ``planes`` planes the core tier holds
    ``planes × cores_per_plane`` switches, where ``cores_per_plane`` is the
    per-ToR uplink budget (``round(nodes_per_tor / oversubscription)``)
    divided by ``planes``.  Core switch ``c`` belongs to plane
    ``c // cores_per_plane``; :meth:`plane_links` names every ToR–core link
    of one plane so a `FaultSchedule` can take a whole plane down.

    Routing is unchanged from the base fat tree — ECMP over all surviving
    cores — so losing one plane degrades bisection by ``1/planes`` instead
    of partitioning anything.
    """

    def __init__(
        self,
        num_hosts: int,
        nodes_per_tor: int = 16,
        planes: int = 2,
        oversubscription: float = 1.0,
        bandwidth: float = 25.0,
        latency: int = 500,
    ) -> None:
        if planes <= 0:
            raise ValueError("planes must be positive")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")
        total_uplinks = max(1, int(round(nodes_per_tor / oversubscription)))
        cores_per_plane = max(1, total_uplinks // planes)
        if planes * cores_per_plane > nodes_per_tor:
            raise ValueError(
                f"planes ({planes}) exceed the per-ToR uplink budget "
                f"({total_uplinks} uplinks at oversubscription "
                f"{oversubscription} with {nodes_per_tor} nodes per ToR)"
            )
        self.planes = planes
        self.cores_per_plane = cores_per_plane
        super().__init__(
            num_hosts,
            nodes_per_tor=nodes_per_tor,
            oversubscription=nodes_per_tor / (planes * cores_per_plane),
            bandwidth=bandwidth,
            latency=latency,
        )

    def plane_cores(self, plane: int) -> List[int]:
        """Core switch indices of ``plane``."""
        if not (0 <= plane < self.planes):
            raise ValueError(f"plane must be in [0, {self.planes}), got {plane}")
        start = plane * self.cores_per_plane
        return list(range(start, start + self.cores_per_plane))

    def plane_links(self, plane: int) -> List[int]:
        """Every ToR–core link id (both directions) of ``plane``.

        Failing exactly these links models draining or losing the plane.
        """
        links: List[int] = []
        for t in range(self.num_tors):
            for c in self.plane_cores(plane):
                links.append(self._tor_up[(t, c)])
                links.append(self._tor_down[(t, c)])
        return links

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d.update({"planes": self.planes, "cores_per_plane": self.cores_per_plane})
        return d


class RailOptimizedFatTreeTopology(FatTreeTopology):
    """Rail-optimized fat tree for GPU servers.

    Hosts are GPUs: server ``s`` owns hosts ``s·rails .. s·rails+rails-1``,
    and GPU ``k`` ("rail ``k``") of every server in a pod attaches to the
    pod's rail-``k`` ToR switch.  Same-rail traffic inside a pod therefore
    stays one switch away regardless of server — the layout NCCL-style
    collectives assume — while cross-rail or cross-pod traffic climbs to the
    shared core tier.

    ``nodes_per_tor`` keeps its base meaning as hosts per ToR, which here
    equals servers per pod (each server contributes one GPU per rail
    switch).  ``num_hosts`` must be divisible by ``rails``.
    """

    def __init__(
        self,
        num_hosts: int,
        rails: int = 4,
        nodes_per_tor: int = 16,
        oversubscription: float = 1.0,
        bandwidth: float = 25.0,
        latency: int = 500,
    ) -> None:
        if rails <= 0:
            raise ValueError("rails must be positive")
        if num_hosts % rails != 0:
            raise ValueError(
                f"num_hosts ({num_hosts}) must be divisible by rails ({rails}): "
                f"every server contributes one GPU per rail"
            )
        self.rails = rails
        self.servers_per_pod = nodes_per_tor
        self.num_pods = max(1, math.ceil((num_hosts // rails) / nodes_per_tor))
        super().__init__(
            num_hosts,
            nodes_per_tor=nodes_per_tor,
            oversubscription=oversubscription,
            bandwidth=bandwidth,
            latency=latency,
        )

    def _num_tors(self) -> int:
        return self.num_pods * self.rails

    def tor_of(self, host: int) -> int:
        """Rail switch of ``host``: pod-major, rail-minor."""
        server, rail = divmod(host, self.rails)
        return (server // self.servers_per_pod) * self.rails + rail

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d.update(
            {
                "rails": self.rails,
                "num_pods": self.num_pods,
                "servers_per_pod": self.servers_per_pod,
            }
        )
        return d
