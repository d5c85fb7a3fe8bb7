"""What a routing decision reads: the links it weighs and the one pick hook.

* An adaptive (UGAL) pick costs its minimal and Valiant candidates with one
  formula and reads the packet backend's occupancy view only at their
  links: on a 512-host fat tree (2048 links) at most the summed length of
  the candidates, where a full load array reads every queue.
* A base Valiant detour draws each leg through
  :meth:`Topology.pick_minimal`: a healthy fat tree draws it in closed form
  and builds no table, and on a dragonfly every leg is one route-table
  lookup that the route-cache counters see.

That the reads change nothing simulated is the ``packet/*`` rows' job in
``tests/differential.py`` (the per-transmission oracle hands routing a full
array).  This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
import numpy as np

from repro.network import SimulationConfig
from repro.network.packet.backend import PacketBackend
from repro.network.routing import ValiantRouting
from repro.network.topology import DragonflyTopology, FatTreeTopology
from repro.schedgen import all_to_all
from repro.scheduler import simulate


class _CountingQueue:
    """A link queue that logs its link id on every attribute read through it."""

    def __init__(self, queue, reads):
        self._queue = queue
        self._reads = reads

    def __getattr__(self, name):
        self._reads.append(self._queue.link.link_id)
        return getattr(self._queue, name)


def test_an_adaptive_pick_reads_only_the_links_it_weighs():
    backend = PacketBackend()
    backend.setup(512, SimulationConfig(nodes_per_tor=32, routing="adaptive", seed=1))
    topo = backend.topology
    assert len(topo.links) == 2048
    weighed = []
    valiant_routes = topo.valiant_routes

    def recording_valiant(*args, **kwargs):
        detours = valiant_routes(*args, **kwargs)
        weighed.extend(detours)
        return detours

    topo.valiant_routes = recording_valiant
    reads = []
    backend.queues[:] = [_CountingQueue(q, reads) for q in backend.queues]
    for src, dst in ((0, 511), (5, 300), (40, 41)):
        weighed[:] = topo.routes(src, dst)
        minimal = len(weighed)
        reads.clear()
        backend._pick_route(src, dst, 4096)
        assert len(weighed) > minimal, "the Valiant candidates were weighed too"
        assert len(reads) <= sum(map(len, weighed))
        assert set(reads) <= {link for route in weighed for link in route}


def test_valiant_on_a_healthy_fat_tree_builds_no_table():
    topo = FatTreeTopology(64, nodes_per_tor=8)
    routing = ValiantRouting(topo, np.random.default_rng(3))
    for src in range(0, 64, 5):
        route = routing.select_route(src, 63 - src)
        topo.validate_route(route, src, 63 - src)
    assert len(topo._route_tables) == 0
    assert topo.route_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}


def test_valiant_legs_on_a_dragonfly_are_table_lookups():
    topo = DragonflyTopology(32, groups=4, routers_per_group=4, nodes_per_router=2)
    routing = ValiantRouting(topo, np.random.default_rng(3))
    picks = 10
    for src in range(picks):
        routing.select_route(src, 31 - src)
    stats = topo.route_cache_stats()
    # two legs per intermediate, one table lookup each
    assert stats["hits"] + stats["misses"] == picks * routing.count * 2


def test_valiant_lookups_show_in_a_runs_route_cache_counters():
    schedule = all_to_all(16, 4096)
    config = SimulationConfig(routing="valiant", seed=3)
    fat_tree = simulate(schedule, backend="htsim", config=config.replace(nodes_per_tor=4))
    dragonfly = simulate(schedule, backend="htsim", config=config.replace(topology="dragonfly"))
    assert (
        fat_tree.stats.route_cache_hits,
        fat_tree.stats.route_cache_misses,
        fat_tree.stats.route_cache_evictions,
    ) == (0, 0, 0)
    assert dragonfly.stats.route_cache_hits + dragonfly.stats.route_cache_misses > 0
