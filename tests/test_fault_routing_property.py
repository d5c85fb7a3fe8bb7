"""Randomized property tests for failure-aware routing.

A seeded RNG generates random topologies (fat tree / torus / dragonfly with
random shape parameters) and random alive-masks (random subsets of the
fabric's switch-to-switch cables failed), and asserts the routing-layer
fault invariants for every registered strategy:

* every selected route uses only alive links,
* every selected route passes ``Topology.validate_route``,
* the selection consumes candidates in their original (healthy) order —
  filtering never reorders,
* a pair whose candidates are all failed raises
  :class:`~repro.network.faults.NetworkPartitionError` (the no-route case),
  and restoring the links heals it.

Mirrors the seeded-RNG style of ``tests/test_goal_roundtrip_property.py``:
one deterministic scenario per seed, parameterized over a seed range.
"""
import random

import numpy as np
import pytest

from repro.network.faults import NetworkPartitionError, fabric_cables
from repro.network.routing import create_routing, routing_names
from repro.network.topology.dragonfly import DragonflyTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.torus import TorusTopology

NUM_RANDOM_SCENARIOS = 25


def _random_topology(rng: random.Random):
    kind = rng.choice(("fat_tree", "torus", "dragonfly"))
    if kind == "fat_tree":
        nodes_per_tor = rng.randint(2, 6)
        num_tors = rng.randint(2, 4)
        return FatTreeTopology(
            nodes_per_tor * num_tors,
            nodes_per_tor=nodes_per_tor,
            oversubscription=rng.choice((1.0, 2.0)),
        )
    if kind == "torus":
        dims = tuple(rng.randint(2, 4) for _ in range(rng.choice((2, 3))))
        hosts_per_node = rng.randint(1, 2)
        capacity = hosts_per_node
        for d in dims:
            capacity *= d
        return TorusTopology(
            rng.randint(max(2, capacity // 2), capacity),
            dims=dims,
            hosts_per_node=hosts_per_node,
        )
    groups = rng.randint(2, 4)
    routers = rng.randint(2, 3)
    nodes = rng.randint(1, 3)
    capacity = groups * routers * nodes
    return DragonflyTopology(
        rng.randint(max(2, capacity // 2), capacity),
        groups=groups,
        routers_per_group=routers,
        nodes_per_router=nodes,
    )


def _random_alive_mask(rng: random.Random, topo) -> list:
    """Fail a random subset of the fabric cables (at most half of them)."""
    cables = fabric_cables(topo)
    if not cables:
        return []
    count = rng.randint(0, max(0, len(cables) // 2))
    failed = []
    for cable in rng.sample(cables, count):
        failed.extend(cable)
    topo.fail_links(failed)
    return failed


def _random_pairs(rng: random.Random, num_hosts: int, count: int):
    pairs = []
    for _ in range(count):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts)
        while dst == src:
            dst = rng.randrange(num_hosts)
        pairs.append((src, dst))
    return pairs


@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCENARIOS))
def test_selected_routes_use_only_alive_links(seed):
    rng = random.Random(seed)
    topo = _random_topology(rng)
    failed = set(_random_alive_mask(rng, topo))
    loads = np.zeros(len(topo.links), dtype=np.int64)
    strategies = [
        create_routing(name, topo, np.random.default_rng(seed))
        for name in routing_names()
    ]
    for src, dst in _random_pairs(rng, topo.num_hosts, 12):
        try:
            alive = topo.alive_table(src, dst)
        except NetworkPartitionError:
            # the no-route case: every healthy candidate must cross a failure
            for route in topo.route_table(src, dst):
                assert failed & set(route)
            continue
        # filtering preserves healthy candidate order
        healthy = topo.route_table(src, dst)
        assert list(alive) == [
            r for r in healthy if not (failed & set(r))
        ]
        for strategy in strategies:
            route = strategy.select_route(src, dst, 4096, loads)
            assert not (failed & set(route)), (
                f"seed {seed}: {strategy.name} picked a dead link on "
                f"{type(topo).__name__} {src}->{dst}: {route}"
            )
            topo.validate_route(route, src, dst)


@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCENARIOS))
def test_partition_raises_and_restoring_heals(seed):
    rng = random.Random(seed)
    topo = _random_topology(rng)
    src, dst = _random_pairs(rng, topo.num_hosts, 1)[0]
    # fail exactly the links of every candidate of this pair: a guaranteed
    # no-route case regardless of the topology drawn
    doomed = sorted({l for r in topo.route_table(src, dst) for l in r})
    topo.fail_links(doomed)
    with pytest.raises(NetworkPartitionError, match=f"host {src} to host {dst}"):
        topo.alive_table(src, dst)
    for name in routing_names():
        strategy = create_routing(name, topo, np.random.default_rng(seed))
        if name == "valiant" and topo.valiant_routes(
            src, dst, np.random.default_rng(seed)
        ):
            # valiant may legitimately survive over a detour; the minimal
            # fallback is only consulted when no detour survives
            continue
        with pytest.raises(NetworkPartitionError):
            strategy.select_route(src, dst, 4096, None)
    topo.restore_links(doomed)
    assert not topo.faulty
    assert topo.alive_table(src, dst) == topo.route_table(src, dst)


@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCENARIOS))
def test_healthy_selection_unchanged_by_fault_machinery(seed):
    """On a never-faulted topology, selection equals a fresh topology's."""
    rng = random.Random(seed)
    topo_a = _random_topology(rng)
    topo_b = _random_topology(random.Random(seed))  # identical twin
    loads = np.zeros(len(topo_a.links), dtype=np.int64)
    for name in routing_names():
        sa = create_routing(name, topo_a, np.random.default_rng(seed))
        sb = create_routing(name, topo_b, np.random.default_rng(seed))
        for src, dst in _random_pairs(random.Random(seed + 1), topo_a.num_hosts, 8):
            assert sa.select_route(src, dst, 4096, loads) == sb.select_route(
                src, dst, 4096, loads
            )
