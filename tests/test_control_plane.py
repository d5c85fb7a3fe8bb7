"""Unit tests of the control-plane convergence models (repro.network.control_plane).

Covers the protocol registry (mirroring the routing-strategy registry), the
advertisement-wave arithmetic (origin detection, per-hop learn times, the
distance-vector factor-two hop cost, bounded message counts, waves not
crossing dead links), view maintenance (reference-counted believed-failed
sets, memoized view keys, the ``knows`` forwarding predicate) and the
:class:`ConvergenceRecord` bookkeeping both backends surface.
"""
import pytest

from repro.network.control_plane import (
    CONTROL_PLANES,
    ControlPlane,
    ConvergenceRecord,
    DistanceVectorControlPlane,
    LinkStateControlPlane,
    control_plane_names,
    create_control_plane,
    register_control_plane,
)
from repro.network.faults import LINK_DOWN, LINK_UP, resolve_link_ids
from repro.network.topology.fattree import FatTreeTopology


def _fat_tree() -> FatTreeTopology:
    # 2 ToRs x 4 hosts, 4 cores at 1:1 -- switch graph: tor0, tor1, core0-3
    return FatTreeTopology(8, nodes_per_tor=4)


def _ids(topo, *names: str):
    return [resolve_link_ids(topo, n)[0] for n in names]


def _converged(cp) -> bool:
    """Every switch's view equals the topology's failed set."""
    return all(cp.view_key(sw) == cp.topology.failed_links for sw in cp._adjacency)


# ------------------------------------------------------------------- registry
class TestRegistry:
    def test_builtin_protocols_registered(self):
        assert control_plane_names() == ("dv", "ls", "oracle")
        # the oracle is a valid setting, not a protocol: no plane is built
        assert "oracle" not in CONTROL_PLANES
        assert create_control_plane("oracle", _fat_tree()) is None
        assert CONTROL_PLANES["ls"] is LinkStateControlPlane
        assert CONTROL_PLANES["dv"] is DistanceVectorControlPlane

    def test_create_by_name(self):
        topo = _fat_tree()
        cp = create_control_plane("dv", topo, propagation_delay_ns=7, processing_delay_ns=3)
        assert isinstance(cp, DistanceVectorControlPlane)
        assert cp.propagation_delay_ns == 7 and cp.processing_delay_ns == 3

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown control plane 'bgp'.*dv, ls, oracle"):
            create_control_plane("bgp", _fat_tree())

    def test_register_decorator(self):
        @register_control_plane
        class SlowFlood(ControlPlane):
            name = "slowflood"
            rounds_per_hop = 3

        try:
            assert create_control_plane("slowflood", _fat_tree()).rounds_per_hop == 3
            assert "slowflood" in control_plane_names()
        finally:
            del CONTROL_PLANES["slowflood"]

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            create_control_plane("ls", _fat_tree(), propagation_delay_ns=-1)
        with pytest.raises(ValueError, match="non-negative"):
            create_control_plane("ls", _fat_tree(), processing_delay_ns=-1)


# ------------------------------------------------------------- wave arithmetic
class TestWave:
    def test_origins_are_the_switch_endpoints(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        assert cp._origin_switches(cable) == [
            topo.attachment(0),  # tor0
            topo.links[cable[0]].dst,  # core0
        ]
        # host links contribute only their switch endpoint
        host_up = _ids(topo, "host0->tor0")
        assert cp._origin_switches(host_up) == [topo.attachment(0)]

    def test_learn_times_one_hop_fat_tree(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo, propagation_delay_ns=500, processing_delay_ns=100)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        topo.fail_links(cable)
        learn, messages = cp.learn_times(cp._origin_switches(cable), event_time=10_000)
        # origins detect after one processing delay; every other switch is one
        # wave hop away on this two-level fabric
        base, hop = 10_100, 600
        assert set(learn) == set(cp._adjacency)
        origins = set(cp._origin_switches(cable))
        for sw, t in learn.items():
            assert t == (base if sw in origins else base + hop)
        # one advertisement per alive out-edge of every reached switch:
        # tor0 has 3 alive uplinks, core0 has 1 alive downlink, the other
        # three cores 2 each, tor1 all 4
        assert messages == 3 + 1 + 3 * 2 + 4

    def test_dv_pays_double_per_hop(self):
        topo_ls, topo_dv = _fat_tree(), _fat_tree()
        cable_names = ("tor0->core0", "core0->tor0")
        results = {}
        for name, topo in (("ls", topo_ls), ("dv", topo_dv)):
            cp = create_control_plane(name, topo, propagation_delay_ns=500, processing_delay_ns=100)
            cable = _ids(topo, *cable_names)
            topo.fail_links(cable)
            record, learn = cp.originate(10_000, LINK_DOWN, cable)
            results[name] = (record, learn)
        ls_record, ls_learn = results["ls"]
        dv_record, dv_learn = results["dv"]
        assert ls_record.time_to_recover_ns == 100 + 600
        assert dv_record.time_to_recover_ns == 100 + 2 * 600
        assert dv_record.messages == 2 * ls_record.messages
        # per switch: the dv wave lags exactly one extra (prop + proc) per hop
        for sw, t in ls_learn.items():
            lag = (t - 10_100) // 600
            assert dv_learn[sw] == 10_100 + lag * 1200

    def test_wave_does_not_cross_dead_links(self):
        topo = _fat_tree()
        # statically cut core0 off entirely, then create the control plane:
        # views boot with the truth, and later waves cannot reach core0
        isolated = _ids(
            topo, "tor0->core0", "core0->tor0", "tor1->core0", "core0->tor1"
        )
        topo.fail_links(isolated)
        cp = create_control_plane("ls", topo)
        assert _converged(cp)  # boots converged with the pre-failed state
        cable = _ids(topo, "tor0->core1", "core1->tor0")
        topo.fail_links(cable)
        record, learn = cp.originate(5_000, LINK_DOWN, cable)
        core0 = topo.links[isolated[0]].dst
        assert core0 not in learn
        assert set(learn) == set(cp._adjacency) - {core0}
        assert record.converged_at_ns == max(learn.values())

    def test_messages_accumulate(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        topo.fail_links(cable)
        first, _ = cp.originate(1_000, LINK_DOWN, cable)
        topo.restore_links(cable)
        second, _ = cp.originate(2_000, LINK_UP, cable)
        # each record counts its own wave only: a run's total is their sum
        assert second.messages == cp.learn_times(cp._origin_switches(cable), 2_000)[1]
        # the link-up wave floods over the restored graph: strictly more
        # alive out-edges than the link-down wave saw
        assert second.messages > first.messages


# ------------------------------------------------------------------ the views
class TestViews:
    def test_apply_and_converged(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        topo.fail_links(cable)
        assert not _converged(cp)
        _, learn = cp.originate(0, LINK_DOWN, cable)
        cp.apply(list(learn), LINK_DOWN, cable)
        assert _converged(cp)
        for sw in cp._adjacency:
            assert cp.view_key(sw) == frozenset(cable)

    def test_partial_apply_leaves_stale_switches(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        topo.fail_links(cable)
        tor0 = topo.attachment(0)
        cp.apply([tor0], LINK_DOWN, cable)
        assert cp.view_key(tor0) == frozenset(cable)
        tor1 = topo.attachment(4)
        assert cp.view_key(tor1) == frozenset()
        assert not _converged(cp)

    def test_views_reference_count_overlapping_causes(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        link = _ids(topo, "tor0->core0")
        sw = topo.attachment(0)
        cp.apply([sw], LINK_DOWN, link)
        cp.apply([sw], LINK_DOWN, link)  # second cause (e.g. a drain)
        cp.apply([sw], LINK_UP, link)
        assert cp.view_key(sw) == frozenset(link)  # one cause still holds
        cp.apply([sw], LINK_UP, link)
        assert cp.view_key(sw) == frozenset()
        cp.apply([sw], LINK_UP, link)  # spurious restore is a no-op
        assert cp.view_key(sw) == frozenset()

    def test_view_key_is_memoized_and_invalidated(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        sw = topo.attachment(0)
        key = cp.view_key(sw)
        assert cp.view_key(sw) is key
        cp.apply([sw], LINK_DOWN, _ids(topo, "tor0->core0"))
        assert cp.view_key(sw) != key

    def test_knows_predicate(self):
        topo = _fat_tree()
        cp = create_control_plane("ls", topo)
        cable = _ids(topo, "tor0->core0", "core0->tor0")
        route = next(
            r for r in topo.route_table(0, 4) if cable[0] in r
        )
        topo.fail_links(cable)
        tor0 = topo.attachment(0)
        # stale switch: the dead uplink is not in its view -> blackhole
        assert not cp.knows(tor0, route, 1)
        cp.apply([tor0], LINK_DOWN, cable)
        assert cp.knows(tor0, route, 1)
        # hops past the dead link are not the forwarding switch's problem
        dead_hop = route.index(cable[0])
        assert cp.knows(tor0, route, dead_hop + 1)
        # hosts hold no view and never blackhole
        assert cp.knows(0, route, 1)


# ----------------------------------------------------------------- the record
class TestConvergenceRecord:
    def test_fields_and_ttr(self):
        record = ConvergenceRecord(
            time_ns=1_000,
            kind=LINK_DOWN,
            link_ids=(3, 4),
            converged_at_ns=2_500,
            messages=14,
            protocol="ls",
        )
        assert record.time_to_recover_ns == 1_500
        with pytest.raises(AttributeError):
            record.messages = 99  # frozen
