"""Unit and property tests of the bounded route-table caches.

The per-pair route memos (`route_table` / `alive_table` / `view_table` /
`route_latency`, plus the per-topology path memos) are O(N²) in hosts; this
PR bounds them with LRU caches (see docs/scaling.md).  Covered here:

* the :class:`LruCache` primitive itself (hits, misses, eviction order,
  budget changes, 0 = unbounded),
* eviction exactness — a tiny budget must not change the digest of a run,
* the one fault-filtered cache behind ``alive_table`` and ``view_table``:
  keyed by the failed set, evicted at every fault-epoch change (the
  unbounded view-growth regression), including across a multi-event
  ``FaultSchedule``,
* the failed set tracking a model through interleaved
  fail/restore/drain/degrade sequences (a property test),
* route-cache hit/miss/eviction counters surfacing on ``NetworkStats``
  (both backends) and summing under ``merge``.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
import numpy as np
import pytest

from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.network.backend import NetworkStats
from repro.network.faults import LINK_DOWN, LINK_UP, resolve_link_ids, switch_link_ids
from repro.network.topology.base import DEFAULT_ROUTE_CACHE_BUDGET, LruCache
from repro.network.topology.fattree import FatTreeTopology
from repro.schedgen import all_to_all
from repro.scheduler import simulate


def _link_id(topo, name: str) -> int:
    return resolve_link_ids(topo, name)[0]


# ------------------------------------------------------------------ primitive
class TestLruCache:
    def test_get_put_and_counters(self):
        cache = LruCache(budget=4)
        assert cache.get("a") is None
        assert cache.misses == 1
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert len(cache) == 1 and "a" in cache

    def test_evicts_least_recently_used(self):
        cache = LruCache(budget=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_zero_budget_is_unbounded(self):
        cache = LruCache(budget=0)
        for i in range(10_000):
            cache.put(i, i)
        assert len(cache) == 10_000 and cache.evictions == 0

    def test_shrinking_budget_trims_immediately(self):
        cache = LruCache(budget=0)
        for i in range(10):
            cache.put(i, i)
        cache.set_budget(3)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert all(i in cache for i in (7, 8, 9))

    def test_clear(self):
        cache = LruCache(budget=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None

    def test_cached_none_counts_as_hit(self):
        # regression: get() used to detect misses by comparing the stored
        # value against None, so a legitimately-None entry was re-missed
        # (and its recency never refreshed) on every lookup
        cache = LruCache(budget=2)
        cache.put("a", None)
        assert cache.get("a") is None
        assert cache.hits == 1 and cache.misses == 0
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_cached_none_distinct_from_default(self):
        cache = LruCache(budget=2)
        sentinel = object()
        assert cache.get("missing", sentinel) is sentinel
        cache.put("present", None)
        assert cache.get("present", sentinel) is None


# ------------------------------------------------------------ topology caches
class TestBoundedTopologyCaches:
    def test_route_tables_respect_budget(self):
        topo = FatTreeTopology(16, nodes_per_tor=4)
        topo.set_route_cache_budget(8)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    topo.route_table(src, dst)
        assert len(topo._route_tables) == 8
        assert topo._route_tables.evictions == 16 * 15 - 8

    def test_eviction_rebuilds_bit_identically(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        topo.set_route_cache_budget(1)
        first = topo.route_table(0, 4)
        topo.route_table(4, 0)  # evicts (0, 4)
        assert topo.route_table(0, 4) == first

    def test_default_budget_is_bounded(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        assert topo.route_cache_budget == DEFAULT_ROUTE_CACHE_BUDGET
        for cache in topo._bounded_caches:
            assert cache.budget == DEFAULT_ROUTE_CACHE_BUDGET

    def test_cache_stats_aggregate(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        topo.route_table(0, 4)
        topo.route_table(0, 4)
        stats = topo.route_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["entries"] >= 1

    def test_tiny_budget_results_bit_identical(self):
        """Eviction pressure must never change simulated results."""
        schedule = all_to_all(8, 1 << 12)
        config = SimulationConfig(
            topology="fat_tree", nodes_per_tor=4, routing="adaptive", seed=5
        )
        roomy = simulate(schedule, backend="htsim", config=config)
        tight = simulate(
            schedule, backend="htsim", config=config.replace(route_cache_entries=2)
        )
        assert roomy.digest() == tight.digest()
        assert tight.stats.route_cache_evictions > 0

    def test_one_entry_budget_digest_equals_the_default_on_a_multipath_fabric(self):
        """Adaptive routing on a dragonfly scores many candidates per pair
        from the tables, and draws each leg of its Valiant detours through
        one table lookup: a one-entry cache rebuilds nearly every table and
        simulates the same run."""
        schedule = all_to_all(16, 1 << 12)
        config = SimulationConfig(topology="dragonfly", routing="adaptive", seed=3)
        default = simulate(schedule, backend="htsim", config=config)
        tight = simulate(schedule, backend="htsim", config=config.replace(route_cache_entries=1))
        assert default.digest() == tight.digest()
        assert tight.stats.route_cache_evictions > default.stats.route_cache_evictions


# --------------------------------------------------- fault-epoch eviction
class TestFaultEpochEviction:
    def setup_method(self):
        self.topo = FatTreeTopology(8, nodes_per_tor=4)

    def test_alive_tables_evicted_on_fault_change(self):
        dead = _link_id(self.topo, "tor0->core0")
        self.topo.fail_links([dead])
        self.topo.alive_table(0, 4)
        assert len(self.topo._filtered_tables) == 1
        self.topo.restore_links([dead])
        assert len(self.topo._filtered_tables) == 0

    def test_view_tables_evicted_on_fault_change(self):
        """Regression: view tables used to grow without bound across epochs."""
        dead = _link_id(self.topo, "tor0->core0")
        for h in range(4, 8):
            self.topo.view_table(0, h, frozenset([dead]))
        assert len(self.topo._filtered_tables) == 4
        self.topo.fail_links([dead])
        assert len(self.topo._filtered_tables) == 0

    def test_alive_and_view_tables_are_separate_entries(self):
        """One cache serves both, so its key must carry the failed set."""
        dead, believed = (_link_id(self.topo, f"tor0->core{c}") for c in (0, 1))
        self.topo.fail_links([dead])
        alive = self.topo.alive_table(0, 4)
        view = self.topo.view_table(0, 4, frozenset([believed]))
        assert len(self.topo._filtered_tables) == 2
        assert all(dead not in r for r in alive) and any(believed in r for r in alive)
        assert all(believed not in r for r in view) and any(dead in r for r in view)

    def test_view_tables_bounded_across_multi_event_schedule(self):
        """A long convergence run must keep every per-pair cache bounded."""
        names = [f"tor{t}->core{c}" for t in range(2) for c in range(2)]
        events = []
        for i, name in enumerate(names):
            events.append(FaultEvent(10_000 + 20_000 * i, LINK_DOWN, name))
            events.append(FaultEvent(20_000 + 20_000 * i, LINK_UP, name))
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            faults=FaultSchedule(events=tuple(events)),
            control_plane="dv",
            route_cache_entries=16,
        )
        from repro.scheduler import GoalScheduler

        scheduler = GoalScheduler(all_to_all(8, 1 << 14), backend="htsim", config=config)
        scheduler.run()
        topo = scheduler.backend.topology
        for cache in topo._bounded_caches:
            assert len(cache) <= 16, "a per-pair cache escaped its budget"


# ------------------------------------------------------ failed-set tracking
class TestFailedSetTracking:
    def test_degrade_link_leaves_fault_state(self):
        # a degradation changes a bandwidth, not which candidates survive
        topo = FatTreeTopology(8, nodes_per_tor=4)
        topo.fail_links([_link_id(topo, "tor0->core0")])
        key, table = topo.failed_links, topo.alive_table(0, 4)
        topo.degrade_link(_link_id(topo, "tor0->core1"), 0.5)
        assert topo.failed_links is key
        assert topo.alive_table(0, 4) is table

    def test_property_interleaved_fault_sequences(self):
        """The failed set must track a model set through any interleaving
        of fail / restore / drain / undrain / degrade, and its key keeps
        its identity across every step that changes nothing."""
        rng = np.random.default_rng(1234)
        topo = FatTreeTopology(16, nodes_per_tor=4)
        cables = [l.link_id for l in topo.links]
        switches = list(topo.tor_switches) + list(topo.core_switches)
        # model: multiset of failure causes per link id
        causes = {}

        def model_fail(ids):
            for i in set(ids):
                causes[i] = causes.get(i, 0) + 1

        def model_restore(ids):
            for i in set(ids):
                if causes.get(i, 0) > 1:
                    causes[i] -= 1
                elif i in causes:
                    del causes[i]

        for _ in range(200):
            before, key = set(causes), topo.failed_links
            op = rng.integers(5)
            if op == 0:
                ids = [int(c) for c in rng.choice(cables, size=2)]
                topo.fail_links(ids)
                model_fail(ids)
            elif op == 1 and causes:
                ids = [int(c) for c in rng.choice(list(causes), size=1)]
                topo.restore_links(ids)
                model_restore(ids)
            elif op == 2:
                sw = int(rng.choice(switches))
                ids = switch_link_ids(topo, sw)
                topo.fail_links(ids)
                model_fail(ids)
                topo.restore_links(ids)  # undrain immediately half the time
                model_restore(ids)
            elif op == 3:
                topo.degrade_link(int(rng.choice(cables)), 0.9)
            else:
                link = int(rng.choice(cables))
                topo.restore_links([link])
                # a no-op when the link is healthy, a decrement when it isn't
                model_restore([link])
            assert topo.faulty == bool(causes)
            assert topo.failed_links == set(causes)
            assert all(link in topo.failed for link in causes)
            if op != 2 and set(causes) == before:
                assert topo.failed_links is key
            alive_link = next(
                l for l in cables if l not in causes
            )
            assert alive_link not in topo.failed


# ------------------------------------------------------------- stats plumbing
class TestRouteCacheStatsPlumbing:
    def test_packet_backend_reports_cache_stats(self):
        config = SimulationConfig(topology="fat_tree", nodes_per_tor=4)
        schedule = all_to_all(8, 1 << 12)
        # the counters cover table-path lookups only: a healthy minimal run
        # draws every route table-free and reads 0 across the board
        healthy = simulate(schedule, backend="htsim", config=config).stats
        assert healthy.route_cache_hits == healthy.route_cache_misses == 0
        result = simulate(
            schedule, backend="htsim", config=config.replace(route_synthesis=False)
        )
        assert result.stats.route_cache_misses > 0
        assert result.stats.route_cache_evictions == 0  # budget is roomy
        faulted = simulate(
            schedule,
            backend="htsim",
            config=config.replace(faults=FaultSchedule(failed_links=("tor0->core0",))),
        )
        assert faulted.stats.route_cache_misses > 0

    def test_loggops_backend_reports_cache_stats(self):
        result = simulate(
            all_to_all(8, 1 << 12),
            backend="lgs",
            config=SimulationConfig(topology="torus", torus_dims=(3, 3)),
        )
        assert result.stats.route_cache_misses > 0

    def test_merge_sums_cache_counters(self):
        a = NetworkStats(route_cache_hits=3, route_cache_misses=2, route_cache_evictions=1)
        b = NetworkStats(route_cache_hits=10, route_cache_misses=20, route_cache_evictions=30)
        merged = a.merge(b)
        assert merged.route_cache_hits == 13
        assert merged.route_cache_misses == 22
        assert merged.route_cache_evictions == 31
