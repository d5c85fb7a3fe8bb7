"""Network topologies and their route candidates.

A topology is a directed multigraph of *devices* (hosts and switches) and
*links* (each with its own bandwidth, latency and output queue).  Backends
ask the topology for the candidate routes between two hosts and hand them to
a :mod:`repro.network.routing` strategy, which picks the route each message
takes (ECMP over minimal candidates, Valiant, or UGAL-style adaptive).

Available topologies (see :data:`TOPOLOGY_BUILDERS`):

* :class:`~repro.network.topology.single.SingleSwitchTopology` — every host
  attached to one non-blocking switch,
* :class:`~repro.network.topology.fattree.FatTreeTopology` — two-level fat
  tree with a configurable ToR→core oversubscription ratio (the topology used
  throughout the paper's evaluation),
* :class:`~repro.network.topology.fattree.MultiPlaneFatTreeTopology` — fat
  tree whose core tier is split into independently drainable planes,
* :class:`~repro.network.topology.fattree.RailOptimizedFatTreeTopology` —
  rail-optimized fat tree (GPU ``k`` of every server on the rail-``k``
  switch of its pod),
* :class:`~repro.network.topology.dragonfly.DragonflyTopology` — the Alps-style
  dragonfly used for AI trace collection,
* :class:`~repro.network.topology.torus.TorusTopology` — 2D/3D wrap-around
  torus with dimension-order routing,
* :class:`~repro.network.topology.slimfly.SlimFlyTopology` — diameter-2
  MMS-graph Slim Fly.

New topologies register through :func:`register_topology`; the name then
becomes valid for ``SimulationConfig.topology`` and the CLI ``--topology``
flag, and shows up in ``atlahs topologies``.
"""
from typing import Callable, Dict, Tuple

from repro.network.topology.base import Link, LruCache, Topology
from repro.network.topology.single import SingleSwitchTopology
from repro.network.topology.fattree import (
    FatTreeTopology,
    MultiPlaneFatTreeTopology,
    RailOptimizedFatTreeTopology,
)
from repro.network.topology.dragonfly import DragonflyTopology
from repro.network.topology.torus import TorusTopology
from repro.network.topology.slimfly import SlimFlyTopology

# name -> builder(config, num_hosts); config is a SimulationConfig (duck-typed
# to avoid an import cycle with repro.network.config).
TOPOLOGY_BUILDERS: Dict[str, Callable[..., Topology]] = {}
TOPOLOGY_DESCRIPTIONS: Dict[str, str] = {}


def register_topology(name: str, builder: Callable[..., Topology], description: str = "") -> None:
    """Register ``builder(config, num_hosts)`` under ``name``."""
    TOPOLOGY_BUILDERS[name] = builder
    TOPOLOGY_DESCRIPTIONS[name] = description


def unregister_topology(name: str) -> None:
    """Remove a registered topology (both builder and description)."""
    TOPOLOGY_BUILDERS.pop(name, None)
    TOPOLOGY_DESCRIPTIONS.pop(name, None)


def topology_names() -> Tuple[str, ...]:
    """Names of all registered topologies (sorted)."""
    return tuple(sorted(TOPOLOGY_BUILDERS))


register_topology(
    "single_switch",
    lambda config, num_hosts: SingleSwitchTopology(
        num_hosts,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="every host on one non-blocking crossbar switch",
)
register_topology(
    "fat_tree",
    lambda config, num_hosts: FatTreeTopology(
        num_hosts,
        nodes_per_tor=config.nodes_per_tor,
        oversubscription=config.oversubscription,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="two-level fat tree with configurable ToR-to-core oversubscription",
)
register_topology(
    "fat_tree_multiplane",
    lambda config, num_hosts: MultiPlaneFatTreeTopology(
        num_hosts,
        nodes_per_tor=config.nodes_per_tor,
        planes=config.fattree_planes,
        oversubscription=config.oversubscription,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="fat tree with the core tier split into drainable planes",
)
register_topology(
    "fat_tree_rail",
    lambda config, num_hosts: RailOptimizedFatTreeTopology(
        num_hosts,
        rails=config.fattree_rails,
        nodes_per_tor=config.nodes_per_tor,
        oversubscription=config.oversubscription,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="rail-optimized fat tree: GPU k of every server on rail-k switch",
)
register_topology(
    "dragonfly",
    lambda config, num_hosts: DragonflyTopology(
        num_hosts,
        groups=config.dragonfly_groups,
        routers_per_group=config.dragonfly_routers_per_group,
        nodes_per_router=config.dragonfly_nodes_per_router,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="groups of routers with all-to-all global links (Alps-style)",
)
register_topology(
    "torus",
    lambda config, num_hosts: TorusTopology(
        num_hosts,
        dims=config.torus_dims,
        hosts_per_node=config.torus_hosts_per_node,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="2D/3D wrap-around torus with dimension-order routing",
)
register_topology(
    "slimfly",
    lambda config, num_hosts: SlimFlyTopology(
        num_hosts,
        q=config.slimfly_q,
        hosts_per_router=config.slimfly_hosts_per_router,
        bandwidth=config.link_bandwidth,
        latency=config.link_latency,
    ),
    description="diameter-2 MMS-graph Slim Fly (q prime, q = 1 mod 4)",
)


def build_topology(config, num_hosts: int) -> Topology:
    """Construct the topology described by ``config`` for ``num_hosts`` hosts.

    Parameters
    ----------
    config:
        A :class:`repro.network.config.SimulationConfig`.
    num_hosts:
        Number of simulated endpoints (GOAL ranks).

    The route-table memory model of ``config`` (``route_cache_entries``,
    ``route_synthesis``; see ``docs/scaling.md``) is applied here, so every
    caller — backends, the sharded driver, sweeps, placement — gets the
    same correctly configured topology.
    """
    try:
        builder = TOPOLOGY_BUILDERS[config.topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {config.topology!r} (registered: {', '.join(topology_names())})"
        ) from None
    topology = builder(config, num_hosts)
    topology.set_route_cache_budget(config.route_cache_entries)
    topology.use_synthesis = config.route_synthesis
    return topology


__all__ = [
    "Link",
    "LruCache",
    "Topology",
    "SingleSwitchTopology",
    "FatTreeTopology",
    "MultiPlaneFatTreeTopology",
    "RailOptimizedFatTreeTopology",
    "DragonflyTopology",
    "TorusTopology",
    "SlimFlyTopology",
    "TOPOLOGY_BUILDERS",
    "TOPOLOGY_DESCRIPTIONS",
    "register_topology",
    "unregister_topology",
    "topology_names",
    "build_topology",
]
