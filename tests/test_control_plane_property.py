"""Randomized property tests for control-plane convergence.

A seeded RNG generates random topologies (fat tree / torus / dragonfly with
random shape parameters) and random fault histories (a random subset of the
fabric cables fails, then a random subset of those recovers), replayed
through both real protocols (``ls`` and ``dv``).  For every scenario:

* after every advertisement wave has been applied, each *fully informed*
  switch's local view equals the topology's true failed set — so its
  view-filtered route table is exactly the static oracle's alive-filtered
  table (or both report the same partition),
* every view equals the truth iff every wave reached every switch (a switch cut
  off from an event's origins stays stale forever, by design),
* per-event message counts are bounded by ``rounds_per_hop`` messages per
  directed switch-to-switch cable — the waves are loop-free,
* the wave arithmetic is deterministic: recomputing a wave yields identical
  learn times and message counts.
"""
import random

import pytest

from repro.network.control_plane import create_control_plane
from repro.network.faults import (
    LINK_DOWN,
    LINK_UP,
    NetworkPartitionError,
    fabric_cables,
)
from repro.network.topology.dragonfly import DragonflyTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.torus import TorusTopology

NUM_RANDOM_SCENARIOS = 12
PROTOCOLS = ("ls", "dv")


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


def _random_history(rng: random.Random, topo):
    """(kind, link_ids) fault events: a failure burst, then partial recovery."""
    cables = fabric_cables(topo)
    if not cables:
        return []
    down = rng.sample(cables, rng.randint(1, max(1, len(cables) // 2)))
    up = rng.sample(down, rng.randint(0, len(down)))
    return [(LINK_DOWN, tuple(c)) for c in down] + [(LINK_UP, tuple(c)) for c in up]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCENARIOS))
def test_protocols_converge_to_the_oracle_routes(seed, protocol):
    rng = random.Random(seed)
    topo = _random_topology(rng)
    history = _random_history(rng, topo)
    cp = create_control_plane(
        protocol,
        topo,
        propagation_delay_ns=rng.choice((100, 500, 5000)),
        processing_delay_ns=rng.choice((0, 100)),
    )
    directed_cables = sum(len(edges) for edges in cp._adjacency.values())
    fully_informed = set(cp._adjacency)
    all_covered = True
    for step, (kind, link_ids) in enumerate(history):
        # flip the truth first, then originate over the post-event graph
        if kind == LINK_DOWN:
            topo.fail_links(link_ids)
        else:
            topo.restore_links(link_ids)
        record, learn = cp.originate(step * 10_000, kind, link_ids)
        # loop-free wave: at most rounds_per_hop messages per directed cable
        assert record.messages <= cp.rounds_per_hop * directed_cables
        assert record.converged_at_ns == (
            max(learn.values()) if learn else record.time_ns
        )
        assert all(t >= record.time_ns for t in learn.values())
        # deterministic arithmetic: recomputing the wave changes nothing
        replay, messages = cp.learn_times(cp._origin_switches(link_ids), record.time_ns)
        assert replay == learn and messages == record.messages
        cp.apply(list(learn), kind, link_ids)
        fully_informed &= set(learn)
        all_covered &= set(learn) == set(cp._adjacency)

    truth = topo.failed_links
    # every switch that saw every wave has converged on the truth...
    for sw in fully_informed:
        assert cp.view_key(sw) == truth
    # ...and global convergence holds exactly when no switch missed a wave
    assert all(cp.view_key(sw) == truth for sw in cp._adjacency) == all_covered

    # a converged switch routes exactly like the static oracle: its
    # view-filtered table equals the alive-filtered table, partitions
    # included
    pairs = [
        (src, dst)
        for src in range(topo.num_hosts)
        for dst in rng.sample(range(topo.num_hosts), min(4, topo.num_hosts))
        if src != dst
    ]
    for src, dst in pairs:
        if topo.attachment(src) not in fully_informed:
            continue
        view = cp.view_key(topo.attachment(src))
        try:
            oracle = topo.alive_table(src, dst)
        except NetworkPartitionError:
            with pytest.raises(NetworkPartitionError):
                topo.view_table(src, dst, view)
            continue
        assert topo.view_table(src, dst, view) == oracle
