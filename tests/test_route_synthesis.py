"""Differential tests: structural route synthesis vs the enumeration reference.

Regular topologies compute candidate routes in closed form from coordinates
(:meth:`Topology.synthesized_routes`); the pre-existing :meth:`Topology.routes`
enumeration stays as the reference.  These tests prove the two bit-identical —
same candidate tuples in the same order — on small instances of
*every registered topology*, then prove that whole simulations are
bit-identical with synthesis on and off across every routing strategy.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs: the
closed-form link-id arithmetic must not depend on dict/set iteration order.
"""

import pytest

from repro.network.config import SimulationConfig
from repro.network.routing import routing_names
from repro.network.topology import build_topology, topology_names
from repro.schedgen import all_to_all
from repro.scheduler import simulate

# One small instance per registered topology: (config, num_hosts).
# test_every_registered_topology_is_covered keeps this in sync with the
# factory, so a new topology cannot land without a differential entry.
SMALL_INSTANCES = {
    "single_switch": (SimulationConfig(topology="single_switch"), 6),
    "fat_tree": (SimulationConfig(topology="fat_tree", nodes_per_tor=4), 12),
    "fat_tree_multiplane": (
        SimulationConfig(
            topology="fat_tree_multiplane", nodes_per_tor=4, fattree_planes=2
        ),
        12,
    ),
    "fat_tree_rail": (
        SimulationConfig(topology="fat_tree_rail", fattree_rails=2, nodes_per_tor=3),
        12,
    ),
    "dragonfly": (
        SimulationConfig(
            topology="dragonfly",
            dragonfly_groups=4,
            dragonfly_routers_per_group=2,
            dragonfly_nodes_per_router=2,
        ),
        16,
    ),
    "torus": (SimulationConfig(topology="torus", torus_dims=(3, 3)), 9),
    "slimfly": (SimulationConfig(topology="slimfly"), 12),
}

# Extra shapes that stress the closed-form arithmetic beyond the defaults:
# oversubscription (fewer cores), partial ToRs/pods, 3D torus, asymmetric
# dragonfly, multi-GPU torus nodes.
EXTRA_INSTANCES = [
    (SimulationConfig(topology="fat_tree", nodes_per_tor=4, oversubscription=2.0), 10),
    (SimulationConfig(topology="fat_tree", nodes_per_tor=8), 20),
    (
        SimulationConfig(
            topology="fat_tree_multiplane",
            nodes_per_tor=8,
            fattree_planes=4,
            oversubscription=2.0,
        ),
        16,
    ),
    (SimulationConfig(topology="fat_tree_rail", fattree_rails=4, nodes_per_tor=2), 16),
    (SimulationConfig(topology="torus", torus_dims=(2, 3, 4)), 24),
    (SimulationConfig(topology="torus", torus_dims=(4, 4), torus_hosts_per_node=2), 20),
    (
        SimulationConfig(
            topology="dragonfly",
            dragonfly_groups=5,
            dragonfly_routers_per_group=3,
            dragonfly_nodes_per_router=1,
        ),
        15,
    ),
]


def _assert_synthesis_matches(topo) -> None:
    for src in range(topo.num_hosts):
        for dst in range(topo.num_hosts):
            if src == dst:
                continue
            synthesized = tuple(topo.synthesized_routes(src, dst))
            enumerated = tuple(topo.routes(src, dst))
            assert synthesized == enumerated, (
                f"{type(topo).__name__}: candidates diverge for "
                f"({src}, {dst}): {synthesized} != {enumerated}"
            )


def test_every_registered_topology_is_covered():
    assert set(SMALL_INSTANCES) == set(topology_names())


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_synthesized_routes_equal_enumerated(name):
    config, num_hosts = SMALL_INSTANCES[name]
    topo = build_topology(config, num_hosts)
    _assert_synthesis_matches(topo)


@pytest.mark.parametrize(
    "config, num_hosts",
    EXTRA_INSTANCES,
    ids=lambda v: v.topology if isinstance(v, SimulationConfig) else str(v),
)
def test_synthesized_routes_equal_enumerated_extra_shapes(config, num_hosts):
    topo = build_topology(config, num_hosts)
    _assert_synthesis_matches(topo)


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_route_tables_identical_with_synthesis_off(name):
    """route_table() must yield identical tables from either source."""
    config, num_hosts = SMALL_INSTANCES[name]
    syn = build_topology(config, num_hosts)
    ref = build_topology(config.replace(route_synthesis=False), num_hosts)
    syn.use_synthesis = True
    ref.use_synthesis = False
    for src in range(num_hosts):
        for dst in range(num_hosts):
            if src == dst:
                continue
            assert (
                syn.route_table(src, dst)
                == ref.route_table(src, dst)
            )


@pytest.mark.parametrize("routing", sorted(routing_names()))
@pytest.mark.parametrize(
    "topology", ["fat_tree", "fat_tree_multiplane", "fat_tree_rail", "dragonfly", "torus"]
)
def test_simulation_bit_identical_across_synthesis(topology, routing):
    """Full runs must be bit-identical with synthesis on vs off."""
    config, num_hosts = SMALL_INSTANCES[topology]
    config = config.replace(routing=routing, seed=7)
    schedule = all_to_all(num_hosts, 1 << 12)
    on = simulate(schedule, backend="htsim", config=config)
    off = simulate(
        schedule, backend="htsim", config=config.replace(route_synthesis=False)
    )
    assert on.digest() == off.digest()
    if routing == "minimal" and topology.startswith("fat_tree"):
        # the cache counters describe the lookup path, not the simulation: a
        # healthy minimal fat-tree run with synthesis on builds no table
        assert off.stats.route_cache_misses > 0
        assert on.stats.route_cache_hits == on.stats.route_cache_misses == 0
    else:
        assert on.stats == off.stats


@pytest.mark.parametrize("topology", ["torus", "slimfly"])
def test_loggops_bit_identical_across_synthesis(topology):
    """Topology-aware LogGOPS runs must be equally synthesis-blind."""
    config, num_hosts = SMALL_INSTANCES[topology]
    config = config.replace(routing="adaptive", seed=11)
    schedule = all_to_all(num_hosts, 1 << 12)
    on = simulate(schedule, backend="lgs", config=config)
    off = simulate(
        schedule, backend="lgs", config=config.replace(route_synthesis=False)
    )
    assert on.digest() == off.digest()
    assert on.stats == off.stats
