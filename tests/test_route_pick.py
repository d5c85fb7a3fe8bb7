"""Table-free flow bring-up: the closed forms against their table references.

On a healthy fabric under minimal routing a flow's route is drawn by
:meth:`Topology.pick_minimal` without building the pair's candidate table,
its base RTT is summed from two per-link delay lists, and the backend keeps
only *live* flows.  Each of those replaced a table or a cache that stays in
the tree as the reference, so every test here is differential:

* the hook equals ``pick_route(route_table(s, d).candidates, rng)`` — same
  route, same generator state afterwards — on every registered topology,
  the extra fat-tree/torus/dragonfly shapes, and sampled pairs at 2048
  hosts x 32 cores,
* whole simulations are bit-identical with ``route_synthesis`` off (the
  table path), serial and sharded, and across a timed LINK_DOWN -> LINK_UP
  that crosses closed form -> table -> closed form,
* the per-link RTT sum equals the formula it replaced, under degradations,
* the live-flow registry (kept on fault-scheduled runs only) drains, and
  stays far below the flows started.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
import dataclasses

import numpy as np
import pytest

from repro.collectives import build_collective_schedule
from repro.network import FaultEvent, FaultSchedule, LogGOPSParams, SimulationConfig
from repro.network.faults import LINK_DOWN, LINK_UP
from repro.network.packet.backend import PacketBackend
from repro.network.routing import MinimalRouting
from repro.network.topology import build_topology
from repro.network.topology.base import Topology, pick_route
from repro.schedgen import all_to_all
from repro.scheduler import GoalScheduler, simulate
from test_route_synthesis import EXTRA_INSTANCES, SMALL_INSTANCES
from inline_workers import inline_workers  # shards in-process: no spawn per cell

_PATH_ONLY = dict(route_cache_hits=0, route_cache_misses=0, route_cache_evictions=0)


def _simulated(result):
    """Everything a run simulated; the cache counters only name the lookup path."""
    return (
        result.finish_time_ns,
        result.rank_finish_times_ns,
        result.ops_completed,
        dataclasses.replace(result.stats, **_PATH_ONLY),
        sorted(result.message_records),
    )


def _assert_hook_matches_table(topo, pairs) -> None:
    """Same route and same generator state as the table pick, draw after draw."""
    hook_rng = np.random.default_rng(5)
    table_rng = np.random.default_rng(5)
    for src, dst in pairs:
        expected = pick_route(topo.route_table(src, dst).candidates, table_rng)
        assert topo.pick_minimal(src, dst, hook_rng) == expected, (src, dst)
    assert hook_rng.bit_generator.state == table_rng.bit_generator.state


def _all_pairs(n):
    return [(s, d) for s in range(n) for d in range(n) if s != d]


# ----------------------------------------------------------------- the hook
@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_hook_equals_table_pick_on_every_topology(name):
    config, num_hosts = SMALL_INSTANCES[name]
    topo = build_topology(config, num_hosts)
    _assert_hook_matches_table(topo, _all_pairs(num_hosts))


@pytest.mark.parametrize(
    "config, num_hosts",
    EXTRA_INSTANCES,
    ids=lambda v: v.topology if isinstance(v, SimulationConfig) else str(v),
)
def test_hook_equals_table_pick_on_extra_shapes(config, num_hosts):
    topo = build_topology(config, num_hosts)
    _assert_hook_matches_table(topo, _all_pairs(num_hosts))


@pytest.mark.parametrize(
    "config",
    [
        SimulationConfig(topology="fat_tree", nodes_per_tor=32),
        SimulationConfig(topology="fat_tree_multiplane", nodes_per_tor=32, fattree_planes=4),
        SimulationConfig(topology="fat_tree_rail", nodes_per_tor=32, fattree_rails=8),
    ],
    ids=lambda c: c.topology,
)
def test_hook_equals_table_pick_at_2048_hosts(config):
    topo = build_topology(config, 2048)
    assert topo.num_cores == 32
    rng = np.random.default_rng(11)
    pairs = [
        (int(s), int(d)) for s, d in rng.integers(2048, size=(3000, 2)) if s != d
    ]
    # intra-ToR neighbours too: no draw on either side
    pairs += [(h, h ^ 1) for h in range(0, 2048, 97)]
    _assert_hook_matches_table(topo, pairs)
    assert topo.route_cache_stats()["misses"] > 0  # the reference built tables


def test_hook_rejects_self_routes():
    for name in ("fat_tree", "dragonfly", "torus", "slimfly"):
        config, num_hosts = SMALL_INSTANCES[name]
        topo = build_topology(config, num_hosts)
        with pytest.raises(ValueError, match="itself"):
            topo.pick_minimal(3, 3, np.random.default_rng(0))


def test_closed_forms_build_no_table_and_the_base_hook_does():
    for name in ("fat_tree", "fat_tree_multiplane", "fat_tree_rail"):
        config, num_hosts = SMALL_INSTANCES[name]
        topo = build_topology(config, num_hosts)
        assert type(topo).pick_minimal is not Topology.pick_minimal
        for src, dst in _all_pairs(num_hosts):
            topo.pick_minimal(src, dst, np.random.default_rng(0))
        assert topo.route_cache_stats() == dict(hits=0, misses=0, evictions=0, entries=0)
    for name in ("dragonfly", "torus", "slimfly"):
        config, num_hosts = SMALL_INSTANCES[name]
        topo = build_topology(config, num_hosts)
        assert type(topo).pick_minimal is Topology.pick_minimal
        topo.pick_minimal(0, 5, np.random.default_rng(0))
        assert topo.route_cache_stats()["misses"] == 1


def test_minimal_routing_takes_the_hook_only_when_it_is_exact():
    config, num_hosts = SMALL_INSTANCES["fat_tree"]

    def lookups(view=None, fail=(), use_synthesis=True):
        topo = build_topology(config, num_hosts)
        topo.use_synthesis = use_synthesis
        if fail:
            topo.fail_links(fail)
        routing = MinimalRouting(topo, np.random.default_rng(0))
        routing.select_route(0, 11, view=view)
        stats = topo.route_cache_stats()
        return stats["hits"] + stats["misses"]

    assert lookups() == 0
    assert lookups(use_synthesis=False) > 0
    assert lookups(fail=(24,)) > 0
    assert lookups(view=frozenset({24})) > 0


def test_route_table_views_are_lazy_and_unchanged():
    config, num_hosts = SMALL_INSTANCES["torus"]
    topo = build_topology(config, num_hosts)
    table = topo.route_table(0, 4)
    assert table._views is None
    hops = table.hops
    assert table._views is not None and table.hops is hops
    assert hops.tolist() == [len(r) for r in table.candidates]
    assert table.latency.tolist() == [
        sum(topo.links[l].latency for l in r) for r in table.candidates
    ]
    assert table.links_flat.tolist() == [l for r in table.candidates for l in r]
    assert table.offsets.tolist() == [0, *np.cumsum(hops).tolist()]
    assert topo.min_path_latency(0, 4) == int(table.latency[0])


# ------------------------------------------------------- whole simulations
_GRID_BASE = SimulationConfig(
    topology="fat_tree", nodes_per_tor=4, seed=3, min_retransmit_timeout=50_000
)
_TABLE_PATHS = [dict(route_synthesis=False)]


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("cc", ["dctcp", "ndp"])
def test_table_paths_reproduce_the_closed_form_run(cc, shards):
    schedule = all_to_all(16, 1 << 14)
    config = _GRID_BASE.replace(cc_algorithm=cc, shards=shards)
    with inline_workers():
        default = simulate(schedule, backend="htsim", config=config)
        assert default.stats.route_cache_hits == default.stats.route_cache_misses == 0
        assert default.stats.messages_delivered == 16 * 15
        for knobs in _TABLE_PATHS:
            other = simulate(schedule, backend="htsim", config=config.replace(**knobs))
            assert _simulated(other) == _simulated(default), knobs
            assert other.stats.route_cache_misses > 0


@pytest.mark.parametrize("topology", ["fat_tree_multiplane", "fat_tree_rail", "dragonfly", "torus"])
def test_table_paths_reproduce_the_closed_form_run_per_topology(topology):
    config, num_hosts = SMALL_INSTANCES[topology]
    config = config.replace(seed=9)
    schedule = all_to_all(num_hosts, 1 << 13)
    default = simulate(schedule, backend="htsim", config=config)
    # only the fat-tree family has a closed form; the others keep their tables
    assert (default.stats.route_cache_misses == 0) == topology.startswith("fat_tree")
    for knobs in _TABLE_PATHS:
        other = simulate(schedule, backend="htsim", config=config.replace(**knobs))
        assert _simulated(other) == _simulated(default), knobs


@pytest.mark.parametrize("shards", [1, 2])
def test_link_flap_crosses_closed_form_table_closed_form(shards):
    """Flows start before, during and after the outage; all three phases agree."""
    flap = FaultSchedule(
        events=(
            FaultEvent(20_000, LINK_DOWN, "tor0->core0"),
            FaultEvent(60_000, LINK_UP, "tor0->core0"),
        )
    )
    schedule = build_collective_schedule("allreduce", "ring", 16, 1 << 18)
    config = _GRID_BASE.replace(faults=flap, shards=shards)
    with inline_workers():
        default = simulate(schedule, backend="htsim", config=config)
        posted = [m.post_time for m in default.message_records]
        assert min(posted) < 20_000 < sorted(posted)[len(posted) // 2] < 60_000 < max(posted)
        lookups = default.stats.route_cache_hits + default.stats.route_cache_misses
        for knobs in _TABLE_PATHS:
            other = simulate(schedule, backend="htsim", config=config.replace(**knobs))
            assert _simulated(other) == _simulated(default), knobs
            # tables all run long there; here only during the outage
            stats = other.stats
            assert 0 < lookups < stats.route_cache_hits + stats.route_cache_misses


def test_loggops_routed_latency_unchanged_by_the_table_paths():
    config, num_hosts = SMALL_INSTANCES["fat_tree"]
    config = config.replace(
        loggops_use_topology=True, seed=2, loggops=LogGOPSParams(S=1 << 16)
    )
    schedule = all_to_all(num_hosts, 1 << 17)  # above S: rendezvous handshakes too
    default = simulate(schedule, backend="lgs", config=config)
    # only the handshake (first candidate, no draw) reads a table
    assert default.stats.route_cache_misses == num_hosts * (num_hosts - 1)
    assert default.stats.route_cache_hits == 0
    for knobs in _TABLE_PATHS:
        other = simulate(schedule, backend="lgs", config=config.replace(**knobs))
        assert _simulated(other) == _simulated(default), knobs


# ------------------------------------------------------------ per-link RTT
def _old_base_rtt(backend, route, ack_route):
    """The formula the per-link lists replaced: four sums over Link records."""
    cfg, links = backend.config, backend.topology.links
    prop = sum(links[l].latency for l in route)
    prop_back = sum(links[l].latency for l in ack_route)
    ser = sum(max(1, int(round(cfg.mtu / links[l].bandwidth))) for l in route)
    ser_back = sum(max(1, int(round(cfg.ack_size / links[l].bandwidth))) for l in ack_route)
    return prop + prop_back + ser + ser_back


@pytest.mark.parametrize("name", ["fat_tree", "dragonfly", "torus", "slimfly"])
def test_per_link_rtt_equals_old_formula_under_degradations(name):
    config, num_hosts = SMALL_INSTANCES[name]
    probe = build_topology(config, num_hosts)
    degraded = [probe.links[i].name for i in (1, 2 * num_hosts, len(probe.links) - 1)]
    faults = FaultSchedule(degraded_links=tuple(zip(degraded, (0.5, 0.3, 0.11))))
    backend = PacketBackend()
    backend.setup(num_hosts, config.replace(faults=faults, mtu=1500))
    topo = backend.topology
    assert topo.links[1].bandwidth == probe.links[1].bandwidth * 0.5
    assert backend._data_ns != probe.link_delays(1500)  # built after degrading
    for src, dst in _all_pairs(num_hosts):
        for route in topo.route_table(src, dst).candidates:
            for ack_route in topo.route_table(dst, src).candidates[:2]:
                assert backend._base_rtt(route, ack_route) == _old_base_rtt(
                    backend, route, ack_route
                )
    assert topo.link_delays() == [link.latency for link in topo.links]
    assert not hasattr(backend, "_rtt_cache") and not hasattr(topo, "_route_latency")


# ------------------------------------------------------- live-flow registry
class _PeakTracking(PacketBackend):
    def setup(self, num_ranks, config):
        super().setup(num_ranks, config)
        self.peak_live = 0

    def _start_flow(self, time, payload):
        flow = super()._start_flow(time, payload)
        self.peak_live = max(self.peak_live, len(self.live_flows))
        return flow


# a fault schedule arms the registry; this one fires long after the traffic,
# so every flow still starts on the healthy fabric
_LATE_FAULT = FaultSchedule(events=(FaultEvent(10**12, LINK_DOWN, "tor0->core0"),))


@pytest.mark.parametrize("cc", ["dctcp", "ndp"])
def test_live_flow_registry_drains(cc):
    backend = _PeakTracking()
    config = _GRID_BASE.replace(cc_algorithm=cc, faults=_LATE_FAULT)
    result = GoalScheduler(all_to_all(16, 1 << 14), backend=backend, config=config).run()
    assert result.stats.messages_delivered == backend._n_flows == 16 * 15
    assert not backend.live_flows
    assert 0 < backend.peak_live <= 16 * 15


def test_no_fault_schedule_no_registry():
    backend = _PeakTracking()
    result = GoalScheduler(all_to_all(16, 1 << 14), backend=backend, config=_GRID_BASE).run()
    assert result.stats.messages_delivered == backend._n_flows == 16 * 15
    assert backend.peak_live == 0


def test_live_flows_stay_far_below_total_on_the_2k_allreduce():
    schedule = build_collective_schedule("allreduce", "recursive_doubling", 2048, 1024)
    config = SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=32,
        collect_message_records=False,
        faults=_LATE_FAULT,
    )
    backend = _PeakTracking()
    result = GoalScheduler(schedule, backend=backend, config=config, validate=False).run()
    assert backend._n_flows == result.stats.messages_delivered == 22528
    assert not backend.live_flows
    assert 0 < backend.peak_live <= 2 * 2048  # one round (plus stragglers), not 11
    assert result.stats.route_cache_misses == 0
    assert backend.topology.route_cache_stats()["entries"] == 0


def test_lean_flows_allocate_loss_state_on_first_loss():
    config = _GRID_BASE.replace(buffer_size=16 * 4096, cc_algorithm="dctcp")
    flows = []

    class Recording(PacketBackend):
        def _start_flow(self, time, payload):
            flows.append(super()._start_flow(time, payload))

    result = GoalScheduler(
        all_to_all(16, 1 << 17), backend=Recording(), config=config
    ).run()
    assert result.stats.packets_dropped > 0 and result.stats.messages_delivered == 240
    lossy = [f for f in flows if f.retransmit_queue is not None]
    clean = [f for f in flows if f.retransmit_queue is None]
    assert lossy and clean
    assert all(f.retransmit_pending is None and f.sent_times is None for f in clean)


def test_faulted_repick_visits_only_live_flows_in_start_order():
    """The fault loop walks the registry, not every flow ever started."""
    flap = FaultSchedule(events=(FaultEvent(30_000, LINK_DOWN, "tor0->core0"),))
    schedule = build_collective_schedule("allreduce", "ring", 16, 1 << 18)
    seen = []

    class Spy(PacketBackend):
        def _repickable_flows(self):
            flows = super()._repickable_flows()
            seen.append((self._n_flows, [f.flow_id for f in flows]))
            return flows

    GoalScheduler(
        schedule, backend=Spy(), config=_GRID_BASE.replace(faults=flap)
    ).run()
    (started, live_ids), = seen
    assert live_ids == sorted(live_ids)
    assert 0 < len(live_ids) < started


def test_keyed_stream_is_built_on_first_draw_and_draws_the_same():
    from repro.network.packet.sharded import _KeyedRng

    lazy = _KeyedRng(7, 0x5A, 3, 9, 0)
    assert lazy._gen is None
    eager = np.random.default_rng((7, 0x5A, 3, 9, 0))
    assert [int(lazy.integers(32)) for _ in range(4)] == [
        int(eager.integers(32)) for _ in range(4)
    ]
    # the whole Generator API delegates, not just the draw ECMP uses
    assert lazy.random() == eager.random()
    assert lazy.choice(7) == eager.choice(7)
    # single-candidate picks never touch it
    topo = build_topology(*SMALL_INSTANCES["fat_tree"])
    untouched = _KeyedRng(7, 0x5A, 0, 1, 0)
    assert topo.pick_minimal(0, 1, untouched) == (0, 3) and untouched._gen is None
