"""Tests for the network topologies and their routing."""
import numpy as np
import pytest

from repro.network.config import SimulationConfig
from repro.network.topology import (
    DragonflyTopology,
    FatTreeTopology,
    SingleSwitchTopology,
    SlimFlyTopology,
    TorusTopology,
    build_topology,
    register_topology,
    topology_names,
)


class TestSingleSwitch:
    def test_route_shape(self):
        topo = SingleSwitchTopology(4)
        routes = topo.routes(0, 3)
        assert len(routes) == 1
        assert len(routes[0]) == 2

    def test_routes_valid(self):
        SingleSwitchTopology(5).check_routes()

    def test_self_route_rejected(self):
        with pytest.raises(ValueError):
            SingleSwitchTopology(2).routes(1, 1)

    def test_device_and_link_counts(self):
        topo = SingleSwitchTopology(6)
        assert topo.num_devices == 7
        assert len(topo.links) == 12


class TestFatTree:
    def test_fully_provisioned_core_count(self):
        topo = FatTreeTopology(32, nodes_per_tor=16, oversubscription=1.0)
        assert topo.num_tors == 2
        assert topo.num_cores == 16

    def test_oversubscription_reduces_cores(self):
        topo = FatTreeTopology(32, nodes_per_tor=16, oversubscription=8.0)
        assert topo.num_cores == 2
        assert topo.oversubscription == 8.0

    def test_intra_tor_route_stays_local(self):
        topo = FatTreeTopology(32, nodes_per_tor=16)
        routes = topo.routes(0, 1)
        assert len(routes) == 1 and len(routes[0]) == 2

    def test_inter_tor_routes_fan_out_over_cores(self):
        topo = FatTreeTopology(32, nodes_per_tor=16, oversubscription=2.0)
        routes = topo.routes(0, 20)
        assert len(routes) == topo.num_cores
        for route in routes:
            assert len(route) == 4

    def test_routes_valid(self):
        FatTreeTopology(12, nodes_per_tor=4, oversubscription=2.0).check_routes()

    def test_describe(self):
        d = FatTreeTopology(8, nodes_per_tor=4, oversubscription=4.0).describe()
        assert d["num_cores"] == 1 and d["oversubscription"] == 4.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FatTreeTopology(8, nodes_per_tor=0)
        with pytest.raises(ValueError):
            FatTreeTopology(8, oversubscription=0.5)

    def test_min_path_latency(self):
        topo = FatTreeTopology(8, nodes_per_tor=4, latency=100)
        assert topo.min_path_latency(0, 1) == 200
        assert topo.min_path_latency(0, 5) == 400


class TestDragonfly:
    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            DragonflyTopology(1000, groups=2, routers_per_group=2, nodes_per_router=2)

    def test_same_router_route(self):
        topo = DragonflyTopology(16, groups=2, routers_per_group=2, nodes_per_router=4)
        assert len(topo.routes(0, 1)[0]) == 2

    def test_same_group_route(self):
        topo = DragonflyTopology(16, groups=2, routers_per_group=2, nodes_per_router=4)
        assert len(topo.routes(0, 4)[0]) == 3

    def test_inter_group_route_contains_global_link(self):
        topo = DragonflyTopology(16, groups=2, routers_per_group=2, nodes_per_router=4)
        routes = topo.routes(0, 8)
        assert routes, "expected at least one inter-group route"
        assert 3 <= len(routes[0]) <= 5

    def test_routes_valid(self):
        DragonflyTopology(24, groups=3, routers_per_group=2, nodes_per_router=4).check_routes()

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            DragonflyTopology(4, groups=1)


class TestTorus:
    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            TorusTopology(100, dims=(3, 3), hosts_per_node=1)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            TorusTopology(4, dims=(4,))
        with pytest.raises(ValueError):
            TorusTopology(4, dims=(4, 1))
        with pytest.raises(ValueError):
            TorusTopology(4, dims=(2, 2, 2, 2))

    def test_same_node_route(self):
        topo = TorusTopology(8, dims=(2, 2), hosts_per_node=2)
        assert topo.routes(0, 1) == ((topo._host_up[0], topo._host_down[1]),)

    def test_dimension_order_hop_count(self):
        # 4x4 torus, 1 host per node: host i sits on node i
        topo = TorusTopology(16, dims=(4, 4))
        # (0,0) -> (1,1): one hop per dimension + host links
        routes = topo.routes(0, 5)
        assert all(len(r) == 4 for r in routes)
        # the two dimension orders give distinct minimal paths
        assert len(routes) == 2

    def test_wraparound_takes_short_direction(self):
        topo = TorusTopology(16, dims=(4, 4))
        # (0,0) -> (3,0) is one wrap hop, not three forward hops
        routes = topo.routes(0, 3)
        assert all(len(r) == 3 for r in routes)

    def test_routes_valid_2d_and_3d(self):
        TorusTopology(12, dims=(3, 2), hosts_per_node=2).check_routes()
        TorusTopology(12, dims=(3, 2, 2)).check_routes()

    def test_valiant_routes_are_contiguous_and_longer(self):
        topo = TorusTopology(16, dims=(4, 4))
        rng = np.random.default_rng(0)
        minimal = min(len(r) for r in topo.routes(0, 5))
        for route in topo.valiant_routes(0, 5, rng, count=4):
            topo.validate_route(route, 0, 5)
            assert len(route) >= minimal

    def test_host_groups_follow_nodes(self):
        topo = TorusTopology(8, dims=(2, 2), hosts_per_node=2)
        assert topo.host_groups() == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_describe(self):
        d = TorusTopology(8, dims=(2, 2, 2)).describe()
        assert d["dims"] == (2, 2, 2) and d["num_nodes"] == 8


class TestSlimFly:
    def test_q_validated(self):
        with pytest.raises(ValueError):
            SlimFlyTopology(10, q=4)  # not prime
        with pytest.raises(ValueError):
            SlimFlyTopology(10, q=7)  # prime but 7 % 4 == 3
        with pytest.raises(ValueError):
            SlimFlyTopology(10_000, q=5)  # over capacity

    def test_mms_graph_shape(self):
        topo = SlimFlyTopology(50, q=5, hosts_per_router=1)
        assert topo.num_routers == 50
        assert topo.network_radix == 7
        # every router has exactly (3q - 1) / 2 neighbours
        assert all(len(adj) == 7 for adj in topo._adj)

    def test_diameter_two(self):
        topo = SlimFlyTopology(50, q=5, hosts_per_router=1)
        for r1 in range(topo.num_routers):
            for r2 in range(topo.num_routers):
                if r1 == r2:
                    continue
                paths = topo._router_paths(r1, r2)
                assert paths and all(len(p) <= 2 for p in paths)

    def test_routes_valid(self):
        SlimFlyTopology(20, q=5, hosts_per_router=2).check_routes()

    def test_balanced_concentration_default(self):
        topo = SlimFlyTopology(50, q=5)
        assert topo.hosts_per_router == 4  # ceil(7 / 2)

    def test_valiant_routes_are_contiguous(self):
        topo = SlimFlyTopology(20, q=5, hosts_per_router=2)
        rng = np.random.default_rng(1)
        for route in topo.valiant_routes(0, 19, rng, count=4):
            topo.validate_route(route, 0, 19)
            # valiant never descends to an intermediate host
            for link in route[1:-1]:
                assert not topo.is_host(topo.links[link].src)
                assert not topo.is_host(topo.links[link].dst)

    def test_describe(self):
        d = SlimFlyTopology(20, q=5).describe()
        assert d["q"] == 5 and d["num_routers"] == 50 and d["network_radix"] == 7


class TestBuildTopology:
    def test_build_each_kind(self):
        for kind, cls in (
            ("single_switch", SingleSwitchTopology),
            ("fat_tree", FatTreeTopology),
            ("dragonfly", DragonflyTopology),
            ("torus", TorusTopology),
            ("slimfly", SlimFlyTopology),
        ):
            cfg = SimulationConfig(topology=kind, nodes_per_tor=8, torus_dims=(3, 3))
            topo = build_topology(cfg, 8)
            assert isinstance(topo, cls)
            assert topo.num_hosts == 8

    def test_config_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            SimulationConfig(topology="hypercube")

    def test_config_rejects_bad_shapes_eagerly(self):
        with pytest.raises(ValueError):
            SimulationConfig(topology="torus", torus_dims=(1,))
        with pytest.raises(ValueError):
            SimulationConfig(topology="slimfly", slimfly_q=4)

    def test_registry_lists_builtins(self):
        names = topology_names()
        for expected in ("single_switch", "fat_tree", "dragonfly", "torus", "slimfly"):
            assert expected in names

    def test_register_custom_topology(self):
        from repro.network.topology import TOPOLOGY_BUILDERS, TOPOLOGY_DESCRIPTIONS, unregister_topology

        register_topology("test_custom", lambda cfg, n: SingleSwitchTopology(n))
        try:
            cfg = SimulationConfig(topology="test_custom")
            assert isinstance(build_topology(cfg, 4), SingleSwitchTopology)
        finally:
            unregister_topology("test_custom")
        assert "test_custom" not in TOPOLOGY_BUILDERS
        assert "test_custom" not in TOPOLOGY_DESCRIPTIONS


class TestBaseQueries:
    def test_attachment_and_groups_fat_tree(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        assert topo.attachment(0) == topo.tor_switches[0]
        assert topo.attachment(5) == topo.tor_switches[1]
        assert topo.host_groups() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_attachment_rejects_switch(self):
        topo = SingleSwitchTopology(2)
        with pytest.raises(ValueError):
            topo.attachment(topo.switch)

    def test_default_valiant_routes_via_host(self):
        topo = FatTreeTopology(8, nodes_per_tor=4)
        rng = np.random.default_rng(2)
        routes = topo.valiant_routes(0, 7, rng, count=3)
        assert len(routes) == 3
        for route in routes:
            topo.validate_route(route, 0, 7)

    def test_valiant_routes_empty_when_no_intermediate(self):
        topo = SingleSwitchTopology(2)
        assert topo.valiant_routes(0, 1, np.random.default_rng(0)) == ()


class TestCheckRoutesSymmetry:
    """check_routes verifies reverse-direction candidate symmetry and names
    the offending (src, dst, route) in the failure message."""

    class _MissingReverseCandidates(FatTreeTopology):
        """Forgets every candidate but the first in the reverse direction."""

        def routes(self, src_host, dst_host):
            candidates = super().routes(src_host, dst_host)
            if src_host > dst_host:
                return candidates[:1]
            return candidates

    class _SimplexShortcut(SingleSwitchTopology):
        """A direct host0 -> host1 cable with no reverse direction."""

        def __init__(self):
            super().__init__(2)
            self.shortcut = self._add_link(0, 1, 25.0, 500, "h0=>h1-simplex")

        def routes(self, src_host, dst_host):
            if (src_host, dst_host) == (0, 1):
                return ((self.shortcut,),)
            return super().routes(src_host, dst_host)

    def test_all_registered_topologies_are_symmetric(self):
        config = SimulationConfig(nodes_per_tor=4, torus_dims=(2, 4))
        for name in topology_names():
            build_topology(config.replace(topology=name), 8).check_routes()

    def test_missing_reverse_candidate_reports_offender(self):
        topo = self._MissingReverseCandidates(8, nodes_per_tor=4)
        with pytest.raises(AssertionError) as err:
            topo.check_routes()
        message = str(err.value)
        assert "not reverse-symmetric" in message
        # the offending pair, both candidate counts, and a concrete route
        assert "(src=0, dst=4)" in message
        assert "4 candidate(s)" in message and "1 with" in message
        assert "first offending route: (" in message

    def test_simplex_link_reports_offending_route(self):
        topo = self._SimplexShortcut()
        with pytest.raises(AssertionError) as err:
            topo.check_routes()
        message = str(err.value)
        assert "not reverse-symmetric" in message
        assert f"(src=0, dst=1, route=({topo.shortcut},))" in message
        assert "h0=>h1-simplex" in message
        assert "no reverse-direction twin 1->0" in message

    def test_dragonfly_global_cables_are_duplex(self):
        # the symmetry check is what forced dragonfly global links to be
        # full-duplex cables; lock the wiring in directly
        topo = DragonflyTopology(24, groups=3, routers_per_group=2, nodes_per_router=4)
        pairs = {(l.src, l.dst) for l in topo.links}
        assert all((dst, src) in pairs for src, dst in pairs)
