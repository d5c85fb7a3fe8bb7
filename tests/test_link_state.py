"""What the packet engine keeps per link and per pooled packet.

A :class:`~repro.network.packet.linkqueue.BurstLinkQueue` threads its FIFO
and its occupancy ledger through the backend's pooled packets, and its
serialisation times come from a table shared per link bandwidth, so a link
is one slotted object of scalars and pointers: no container is built per
link, whether or not a packet ever crosses it.  A packet returned to the
pool drops its flow, so a finished flow (its sets, its congestion control,
its routes) is not kept alive by the pool.
"""
from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from inline_workers import inline_workers
from repro.network import SimulationConfig
from repro.network.packet import PacketBackend, linkqueue, sharded
from repro.scheduler import GoalScheduler, simulate
from repro.schedgen import incast

_LOSSY = dict(nodes_per_tor=4, buffer_size=1 << 16)


def test_at_most_256_bytes_per_link():
    backend = PacketBackend()
    gc.collect()
    tracemalloc.start()
    try:
        backend.setup(512, SimulationConfig(topology="fat_tree", nodes_per_tor=32))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    queues = backend.queues
    assert len(queues) >= 1024
    # what the queue module allocated (everything a queue's __init__ builds),
    # plus the queue objects, which the interpreter allocates in the
    # caller's frame before __init__ runs
    built = snapshot.filter_traces([tracemalloc.Filter(True, linkqueue.__file__)])
    in_module = sum(stat.size for stat in built.statistics("filename"))
    objects = sum(sys.getsizeof(q) for q in queues)
    assert (in_module + objects) / len(queues) <= 256


def test_links_of_one_bandwidth_share_one_serialisation_table():
    backend = PacketBackend()
    backend.setup(16, SimulationConfig(topology="fat_tree", nodes_per_tor=4))
    tables = {id(q.tx) for q in backend.queues}
    assert len(tables) == len({q.link.bandwidth for q in backend.queues})


@pytest.mark.parametrize("cc", ["dctcp", "ndp"])
def test_pooled_packets_hold_no_flow(cc):
    scheduler = GoalScheduler(incast(12, 1 << 19), "htsim", SimulationConfig(cc_algorithm=cc, **_LOSSY))
    stats = scheduler.run().stats
    assert stats.packets_dropped + stats.packets_trimmed > 0  # the loss paths pool packets too
    pool = scheduler.backend._packet_free
    assert pool and all(pkt.flow is None for pkt in pool)


def test_pooled_packets_hold_no_flow_on_every_shard(monkeypatch):
    backends = []
    collect = sharded._shard_collect

    def collect_and_keep(state):
        backends.append(state.backend)
        return collect(state)

    monkeypatch.setattr(sharded, "_shard_collect", collect_and_keep)
    with inline_workers():
        simulate(incast(12, 1 << 19), backend="htsim", config=SimulationConfig(shards=2, **_LOSSY))
    # a packet crossing shards is encoded at the barrier and its object pooled
    pool = [pkt for backend in backends for pkt in backend._packet_free]
    assert len(backends) == 2 and pool and all(pkt.flow is None for pkt in pool)
