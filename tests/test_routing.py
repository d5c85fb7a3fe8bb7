"""Tests for the pluggable routing subsystem."""
import numpy as np
import pytest

from repro.network.config import SimulationConfig
from repro.network.routing import (
    ROUTING_STRATEGIES,
    AdaptiveRouting,
    MinimalRouting,
    RoutingStrategy,
    ValiantRouting,
    create_routing,
    register_routing,
    routing_names,
)
from repro.network.topology import (
    FatTreeTopology,
    SlimFlyTopology,
    TorusTopology,
)
from repro.scheduler import simulate
from repro.schedgen import all_to_all, incast


def _rng(seed=0):
    return np.random.default_rng(seed)


def _loads(topo, hot=(), byts=1 << 20):
    """A link-load array: ``byts`` queued on every ``hot`` link, zero elsewhere."""
    loads = np.zeros(len(topo.links), dtype=np.int64)
    loads[list(hot)] = byts
    return loads


class TestRegistry:
    def test_builtins_registered(self):
        assert set(routing_names()) >= {"minimal", "valiant", "adaptive"}

    def test_create_by_name(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        for name, cls in (
            ("minimal", MinimalRouting),
            ("valiant", ValiantRouting),
            ("adaptive", AdaptiveRouting),
        ):
            assert isinstance(create_routing(name, topo, _rng()), cls)

    def test_unknown_name_rejected(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        with pytest.raises(ValueError):
            create_routing("up_down", topo, _rng())

    def test_register_custom_strategy(self):
        class FirstRoute(RoutingStrategy):
            name = "test_first"

            def select_route(self, src, dst, size=0, link_load=None):
                return self.topology.routes(src, dst)[0]

        register_routing(FirstRoute)
        try:
            topo = FatTreeTopology(8, nodes_per_tor=4)
            strategy = create_routing("test_first", topo, _rng())
            assert strategy.select_route(0, 7) == topo.routes(0, 7)[0]
            # config validation accepts the new name
            SimulationConfig(routing="test_first")
        finally:
            del ROUTING_STRATEGIES["test_first"]

    def test_config_rejects_unknown_routing(self):
        with pytest.raises(ValueError):
            SimulationConfig(routing="spray")


class TestMinimal:
    def test_selects_only_minimal_candidates(self):
        topo = FatTreeTopology(16, nodes_per_tor=4, oversubscription=1.0)
        strategy = MinimalRouting(topo, _rng())
        candidates = set(topo.routes(0, 12))
        for _ in range(20):
            assert strategy.select_route(0, 12) in candidates

    def test_single_candidate_consumes_no_randomness(self):
        topo = FatTreeTopology(8, nodes_per_tor=8)  # intra-ToR: one route
        rng = _rng()
        before = rng.integers(1 << 30)
        rng2 = _rng()
        MinimalRouting(topo, rng2).select_route(0, 1)
        assert before == rng2.integers(1 << 30)


class TestValiant:
    def test_routes_through_intermediate(self):
        topo = TorusTopology(16, dims=(4, 4))
        strategy = ValiantRouting(topo, _rng())
        minimal_best = min(len(r) for r in topo.routes(0, 1))
        lengths = {len(strategy.select_route(0, 1)) for _ in range(20)}
        assert max(lengths) > minimal_best  # detours actually happen
        for _ in range(20):
            topo.validate_route(strategy.select_route(0, 1), 0, 1)

    def test_falls_back_to_minimal_without_intermediates(self):
        from repro.network.topology import SingleSwitchTopology

        topo = SingleSwitchTopology(2)
        strategy = ValiantRouting(topo, _rng())
        assert strategy.select_route(0, 1) == topo.routes(0, 1)[0]


class TestAdaptive:
    def test_unloaded_network_routes_minimally(self):
        topo = SlimFlyTopology(20, q=5, hosts_per_router=2)
        strategy = AdaptiveRouting(topo, _rng())
        minimal = set(topo.routes(0, 19))
        assert strategy.select_route(0, 19, 0, _loads(topo)) in minimal

    def test_congestion_diverts_to_valiant(self):
        topo = TorusTopology(16, dims=(4, 4))
        # enough valiant candidates that at least one avoids the hot links
        strategy = AdaptiveRouting(topo, _rng(), count=8)
        minimal = set(topo.routes(0, 5))
        # saturate the router-level links of every minimal path (the host
        # up/downlinks are shared with any detour and stay unloaded)
        hot = {link for route in minimal for link in route[1:-1]}
        route = strategy.select_route(0, 5, 0, _loads(topo, hot))
        assert route not in minimal
        topo.validate_route(route, 0, 5)

    def test_tied_costs_preserve_ecmp_spreading(self):
        # with equal loads (e.g. an idle start) adaptive must still spread
        # over the minimal candidates instead of always taking the first
        topo = FatTreeTopology(32, nodes_per_tor=4, oversubscription=1.0)
        strategy = AdaptiveRouting(topo, _rng())
        chosen = {strategy.select_route(0, 12, 0, _loads(topo)) for _ in range(30)}
        assert len(chosen) > 1

    def test_no_load_signal_behaves_minimally(self):
        topo = TorusTopology(16, dims=(4, 4))
        strategy = AdaptiveRouting(topo, _rng())
        assert strategy.select_route(0, 5) in set(topo.routes(0, 5))


class TestBackendIntegration:
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "adaptive"])
    @pytest.mark.parametrize(
        "topology,extra",
        [
            ("torus", {"torus_dims": (2, 2), "torus_hosts_per_node": 2}),
            ("slimfly", {"slimfly_q": 5, "slimfly_hosts_per_router": 1}),
        ],
    )
    def test_all_routings_complete_on_both_backends(self, topology, extra, routing):
        schedule = all_to_all(8, 1 << 14)
        for backend in ("lgs", "htsim"):
            cfg = SimulationConfig(topology=topology, routing=routing, **extra)
            result = simulate(schedule, backend=backend, config=cfg)
            assert result.finish_time_ns > 0
            assert result.stats.messages_delivered == 8 * 7

    def test_packet_backend_valiant_slower_than_minimal_when_idle(self):
        # longer paths cost latency when there is no congestion to avoid
        schedule = incast(8, 1 << 12)
        extra = {"torus_dims": (4, 4), "torus_hosts_per_node": 1}
        results = {}
        for routing in ("minimal", "valiant"):
            cfg = SimulationConfig(topology="torus", routing=routing, **extra)
            results[routing] = simulate(schedule, backend="htsim", config=cfg).finish_time_ns
        assert results["valiant"] >= results["minimal"]

    def test_loggops_topology_latency_enabled_for_torus(self):
        # auto mode: torus uses routed-path latency, fat tree keeps flat L
        schedule = all_to_all(4, 1 << 10)
        torus_cfg = SimulationConfig(topology="torus", torus_dims=(2, 2))
        flat_cfg = SimulationConfig(
            topology="torus", torus_dims=(2, 2), loggops_use_topology=False
        )
        t_topo = simulate(schedule, backend="lgs", config=torus_cfg).finish_time_ns
        t_flat = simulate(schedule, backend="lgs", config=flat_cfg).finish_time_ns
        # default LogGOPS L (3700) exceeds any 2x2 torus path latency (<= 2000)
        assert t_topo < t_flat

    def test_loggops_flat_latency_preserved_for_fat_tree(self):
        schedule = all_to_all(4, 1 << 10)
        assert not SimulationConfig(topology="fat_tree").loggops_topology_enabled()
        explicit = SimulationConfig(topology="fat_tree", loggops_use_topology=False)
        auto = SimulationConfig(topology="fat_tree")
        t1 = simulate(schedule, backend="lgs", config=explicit).finish_time_ns
        t2 = simulate(schedule, backend="lgs", config=auto).finish_time_ns
        assert t1 == t2

    def test_loggops_routing_choice_changes_latency(self):
        schedule = all_to_all(8, 1 << 14)
        base = SimulationConfig(topology="torus", torus_dims=(4, 4), torus_hosts_per_node=1)
        t_min = simulate(schedule, backend="lgs", config=base).finish_time_ns
        t_val = simulate(
            schedule, backend="lgs", config=base.replace(routing="valiant")
        ).finish_time_ns
        assert t_val > t_min  # valiant detours show up as extra wire latency

    def test_loggops_routed_bytes_exposed(self):
        links = simulate(
            all_to_all(4, 1 << 10),
            backend="lgs",
            config=SimulationConfig(topology="torus", torus_dims=(2, 2)),
        ).links
        assert links.routed_bytes.any() and len(links.routed_bytes) == len(links.names)
        assert not links.busy_ns.any() and not links.drops.any()
