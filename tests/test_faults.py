"""Unit tests of the fault-injection subsystem (repro.network.faults).

Covers the FaultSchedule spec itself (validation, resolution, nested random
draws), the topology's fault state (fail/restore/drain, alive-filtered route
tables, the partition error, static degradation), both backends' fault
behaviour (static and timed events, in-flight rerouting, degraded-capacity
latency factors), and the headline guarantee: an **empty** schedule leaves
both backends bit-identical to a run without any fault machinery.
"""
import pytest

from repro.network import FaultEvent, FaultSchedule, NetworkPartitionError, SimulationConfig
from repro.network.faults import (
    LINK_DOWN,
    LINK_UP,
    SWITCH_DRAIN,
    SWITCH_UNDRAIN,
    fabric_cables,
    random_failed_link_ids,
    resolve_link_ids,
    switch_link_ids,
)
from repro.network.topology.base import FailedLinks
from repro.network.topology.fattree import FatTreeTopology
from repro.schedgen import all_to_all, incast
from repro.scheduler import simulate


def _fat_tree_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(topology="fat_tree", nodes_per_tor=4, **kwargs)


def _link_id(topo, name: str) -> int:
    return resolve_link_ids(topo, name)[0]


# --------------------------------------------------------------------------- spec
class TestFaultScheduleSpec:
    def test_empty_schedule_is_falsy(self):
        assert FaultSchedule().is_empty()
        assert not FaultSchedule()
        assert FaultSchedule(failed_links=("tor0->core0",))
        assert FaultSchedule(link_failure_rate=0.1)
        assert FaultSchedule(events=(FaultEvent(0, LINK_DOWN, 3),))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="link_failure_rate"):
            FaultSchedule(link_failure_rate=1.0)
        with pytest.raises(ValueError, match="link_failure_rate"):
            FaultSchedule(link_failure_rate=-0.1)

    def test_rejects_bad_degradation_factor(self):
        with pytest.raises(ValueError, match="capacity factor"):
            FaultSchedule(degraded_links=(("tor0->core0", 0.0),))
        with pytest.raises(ValueError, match="capacity factor"):
            FaultSchedule(degraded_links=(("tor0->core0", 1.5),))

    def test_event_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(-1, LINK_DOWN, "x")
        with pytest.raises(ValueError, match="unknown fault event kind"):
            FaultEvent(0, "link_wobble", "x")
        with pytest.raises(ValueError, match="switch device id"):
            FaultEvent(0, SWITCH_DRAIN, "tor0")

    def test_sorted_events_stable_on_ties(self):
        a = FaultEvent(5, LINK_DOWN, "a")
        b = FaultEvent(5, LINK_DOWN, "b")
        c = FaultEvent(1, LINK_UP, "c")
        fs = FaultSchedule(events=(a, b, c), failed_links=("c",))
        assert fs.sorted_events() == (c, a, b)

    def test_accepts_lists(self):
        fs = FaultSchedule(
            events=[FaultEvent(0, LINK_DOWN, "x")],
            failed_links=["a", 2],
            degraded_links=[("b", 0.5)],
        )
        assert isinstance(fs.events, tuple)
        assert fs.failed_links == ("a", 2)
        assert fs.degraded_links == (("b", 0.5),)


class TestContradictorySchedules:
    """Contradictory timed sequences are rejected with actionable errors.

    A duplicate link_down would need two link_ups to undo (the topology
    reference-counts failure causes), and a link_up/undrain with no prior
    down/drain is a no-op masking a schedule bug — both are almost
    certainly authoring mistakes, so construction fails fast.
    """

    def test_duplicate_link_down(self):
        with pytest.raises(ValueError, match="already down.*link_up for it first"):
            FaultSchedule(
                events=(
                    FaultEvent(10, LINK_DOWN, "tor0->core0"),
                    FaultEvent(20, LINK_DOWN, "tor0->core0"),
                )
            )

    def test_link_down_already_in_failed_links(self):
        with pytest.raises(ValueError, match="contradictory.*already down"):
            FaultSchedule(
                failed_links=("tor0->core0",),
                events=(FaultEvent(10, LINK_DOWN, "tor0->core0"),),
            )

    def test_link_up_without_prior_down(self):
        with pytest.raises(ValueError, match="not down.*prior link_down"):
            FaultSchedule(events=(FaultEvent(10, LINK_UP, "tor0->core0"),))

    def test_double_link_up(self):
        with pytest.raises(ValueError, match="not down at that time"):
            FaultSchedule(
                failed_links=("tor0->core0",),
                events=(
                    FaultEvent(10, LINK_UP, "tor0->core0"),
                    FaultEvent(20, LINK_UP, "tor0->core0"),
                ),
            )

    def test_duplicate_drain_and_spurious_undrain(self):
        with pytest.raises(ValueError, match="already drained.*switch_undrain"):
            FaultSchedule(
                events=(
                    FaultEvent(10, SWITCH_DRAIN, 8),
                    FaultEvent(20, SWITCH_DRAIN, 8),
                )
            )
        with pytest.raises(ValueError, match="not drained.*prior.*switch_drain"):
            FaultSchedule(events=(FaultEvent(10, SWITCH_UNDRAIN, 8),))

    def test_contradiction_checked_in_time_order_not_declaration_order(self):
        # declared out of order, but the *applied* sequence is legal
        fs = FaultSchedule(
            events=(
                FaultEvent(30, LINK_DOWN, "tor0->core0"),
                FaultEvent(20, LINK_UP, "tor0->core0"),
                FaultEvent(10, LINK_DOWN, "tor0->core0"),
            )
        )
        assert len(fs.sorted_events()) == 3

    def test_flap_and_redown_are_legal(self):
        fs = FaultSchedule(
            failed_links=("core0->tor0",),
            events=(
                FaultEvent(10, LINK_DOWN, "tor0->core0"),
                FaultEvent(20, LINK_UP, "tor0->core0"),
                FaultEvent(25, LINK_UP, "core0->tor0"),
                FaultEvent(30, LINK_DOWN, "tor0->core0"),
                FaultEvent(40, SWITCH_DRAIN, 8),
                FaultEvent(50, SWITCH_UNDRAIN, 8),
                FaultEvent(60, SWITCH_DRAIN, 8),
            ),
        )
        assert len(fs.events) == 7

    def test_same_link_by_name_and_id_tracked_per_spelling(self):
        # best-effort: without a topology the two spellings cannot be
        # unified, so this does not raise (documented limitation)
        fs = FaultSchedule(
            events=(
                FaultEvent(10, LINK_DOWN, "tor0->core0"),
                FaultEvent(20, LINK_DOWN, 7),
            )
        )
        assert len(fs.events) == 2


# --------------------------------------------------------------------- resolution
class TestResolution:
    def setup_method(self):
        self.topo = FatTreeTopology(8, nodes_per_tor=4)

    def test_resolve_by_name_and_id(self):
        link_id = _link_id(self.topo, "tor0->core1")
        assert self.topo.links[link_id].name == "tor0->core1"
        assert resolve_link_ids(self.topo, link_id) == [link_id]

    def test_unknown_name_lists_examples(self):
        with pytest.raises(ValueError, match="no link named 'nope'"):
            resolve_link_ids(self.topo, "nope")
        with pytest.raises(ValueError, match="valid names"):
            resolve_link_ids(self.topo, "nope")

    def test_out_of_range_id(self):
        with pytest.raises(ValueError, match="out of range"):
            resolve_link_ids(self.topo, 10_000)

    def test_switch_link_ids_cover_all_directions(self):
        tor0 = self.topo.tor_switches[0]
        ids = switch_link_ids(self.topo, tor0)
        for link_id in ids:
            link = self.topo.links[link_id]
            assert tor0 in (link.src, link.dst)
        # 4 hosts x 2 directions + per-core up/down
        assert len(ids) == 8 + 2 * self.topo.num_cores

    def test_switch_link_ids_rejects_hosts(self):
        with pytest.raises(ValueError, match="is a host"):
            switch_link_ids(self.topo, 0)
        with pytest.raises(ValueError, match="out of range"):
            switch_link_ids(self.topo, self.topo.num_devices)

    def test_fabric_cables_exclude_host_links(self):
        cables = fabric_cables(self.topo)
        # 2 ToRs x 4 cores = 8 switch-to-switch cables, 2 links each
        assert len(cables) == 8
        for cable in cables:
            assert len(cable) == 2
            for link_id in cable:
                link = self.topo.links[link_id]
                assert not self.topo.is_host(link.src)
                assert not self.topo.is_host(link.dst)

    def test_random_draws_nested_across_rates(self):
        low = set(random_failed_link_ids(self.topo, 0.25, seed=7))
        high = set(random_failed_link_ids(self.topo, 0.5, seed=7))
        assert low and low < high
        assert random_failed_link_ids(self.topo, 0.0, seed=7) == []

    def test_random_draws_fail_whole_cables(self):
        ids = random_failed_link_ids(self.topo, 0.25, seed=3)
        links = self.topo.links
        for link_id in ids:
            link = links[link_id]
            reverse = [
                l.link_id for l in links if l.src == link.dst and l.dst == link.src
            ]
            assert any(r in ids for r in reverse)

    def test_static_failed_ids_deduplicate(self):
        link_id = _link_id(self.topo, "tor0->core0")
        fs = FaultSchedule(failed_links=("tor0->core0", link_id))
        assert fs.static_failed_ids(self.topo) == [link_id]


# ----------------------------------------------------------------- the failed set
class TestFailedLinks:
    def test_duplicates_within_one_call_count_once(self):
        failed = FailedLinks()
        assert failed.change(True, [7, 7])
        assert failed.change(False, [7])
        assert not failed and 7 not in failed

    def test_spurious_restore_is_a_noop(self):
        failed = FailedLinks()
        assert not failed.change(False, [7])
        assert failed.change(True, [7])
        assert failed.change(False, [7, 7])
        assert not failed.change(False, [7])
        assert not failed and failed.key() == frozenset()

    def test_key_keeps_its_identity_until_a_change(self):
        failed = FailedLinks()
        failed.change(True, [3, 5])
        key = failed.key()
        assert key == frozenset([3, 5]) and failed.key() is key
        assert not failed.change(True, [3])  # a second cause changes no membership
        assert failed.key() is key
        assert failed.change(True, [9])
        assert failed.key() == frozenset([3, 5, 9])

    def test_copy_is_independent(self):
        failed = FailedLinks()
        failed.change(True, [3])
        twin = failed.copy()
        twin.change(False, [3])
        assert 3 in failed and 3 not in twin


# ----------------------------------------------------------------- topology state
class TestTopologyFaultState:
    def setup_method(self):
        self.topo = FatTreeTopology(8, nodes_per_tor=4)

    def test_fail_restore_roundtrip(self):
        link_id = _link_id(self.topo, "tor0->core0")
        assert not self.topo.faulty
        assert self.topo.failed_links == frozenset()
        self.topo.fail_links([link_id])
        assert self.topo.faulty
        assert self.topo.failed_links == frozenset([link_id])
        assert link_id in self.topo.failed and link_id + 1 not in self.topo.failed
        self.topo.restore_links([link_id])
        assert not self.topo.faulty
        assert not self.topo.failed and self.topo.failed_links == frozenset()

    def test_alive_table_filters_candidates(self):
        full = self.topo.route_table(0, 4)
        dead = _link_id(self.topo, "tor0->core0")
        self.topo.fail_links([dead])
        alive = self.topo.alive_table(0, 4)
        assert len(alive) == len(full) - 1
        assert all(dead not in route for route in alive)
        # candidate order is preserved
        assert list(alive) == [r for r in full if dead not in r]

    def test_alive_table_memoized_per_epoch(self):
        self.topo.fail_links([_link_id(self.topo, "tor0->core0")])
        first = self.topo.alive_table(0, 4)
        assert self.topo.alive_table(0, 4) is first
        self.topo.fail_links([_link_id(self.topo, "tor0->core1")])
        assert self.topo.alive_table(0, 4) is not first

    def test_partition_error_names_pair_and_links(self):
        for core in range(self.topo.num_cores):
            self.topo.fail_links([_link_id(self.topo, f"tor0->core{core}")])
        with pytest.raises(NetworkPartitionError, match=r"host 0 to host 4"):
            self.topo.alive_table(0, 4)
        with pytest.raises(NetworkPartitionError, match="tor0->core0"):
            self.topo.alive_table(0, 4)
        # intra-ToR pairs are unaffected
        assert self.topo.alive_table(0, 1)

    def test_partition_error_reports_epoch_and_hop_prefixes(self):
        # four fail_links calls -> fault epoch 4; all 4 candidates die at
        # hop 2 (the ToR uplink tier), so the hop-prefix profile localizes
        # the cut: alive through the NIC hop, dead from the uplinks on
        for core in range(self.topo.num_cores):
            self.topo.fail_links([_link_id(self.topo, f"tor0->core{core}")])
        with pytest.raises(NetworkPartitionError, match=r"at fault epoch 4"):
            self.topo.alive_table(0, 4)
        with pytest.raises(
            NetworkPartitionError,
            match=r"4 alive through hop 1; 0 alive through hop 2",
        ):
            self.topo.alive_table(0, 4)

    def test_partition_error_caps_failed_link_names(self):
        # a 16k-host report must not dump thousands of link names: beyond
        # 12 the message summarizes with "+N more"
        big = FatTreeTopology(64, nodes_per_tor=4)  # 16 tors x 4 cores
        failed = [f"tor{t}->core{c}" for t in (0, 1, 2, 3) for c in range(4)]
        big.fail_links([_link_id(big, name) for name in failed])
        with pytest.raises(NetworkPartitionError, match=r"\+4 more"):
            big.alive_table(0, 60)

    def test_overlapping_causes_are_reference_counted(self):
        # drain two switches sharing a cable, undrain one: the shared cable
        # must stay down until the second cause is also restored
        from repro.network.faults import switch_link_ids

        tor0 = self.topo.tor_switches[0]
        core0 = self.topo.core_switches[0]
        drain_tor = switch_link_ids(self.topo, tor0)
        drain_core = switch_link_ids(self.topo, core0)
        shared = set(drain_tor) & set(drain_core)
        assert shared  # the tor0<->core0 cable
        self.topo.fail_links(drain_tor)
        self.topo.fail_links(drain_core)
        self.topo.restore_links(drain_tor)
        assert self.topo.faulty
        assert self.topo.failed_links == frozenset(drain_core)
        for link_id in shared:
            assert link_id in self.topo.failed
        self.topo.restore_links(drain_core)
        assert not self.topo.faulty

    def test_restore_of_healthy_link_is_noop(self):
        link_id = _link_id(self.topo, "tor0->core0")
        self.topo.restore_links([link_id])
        assert not self.topo.faulty
        # duplicates within one call count as one cause
        self.topo.fail_links([link_id, link_id])
        self.topo.restore_links([link_id])
        assert not self.topo.faulty

    def test_degrade_link_scales_bandwidth(self):
        link_id = _link_id(self.topo, "tor0->core0")
        before = self.topo.links[link_id].bandwidth
        self.topo.degrade_link(link_id, 0.5)
        assert self.topo.links[link_id].bandwidth == pytest.approx(before * 0.5)
        with pytest.raises(ValueError, match="capacity factor"):
            self.topo.degrade_link(link_id, 0.0)


# ----------------------------------------------------- empty schedule bit-identity
class TestEmptyScheduleBitIdentity:
    """An empty FaultSchedule must be byte-for-byte the pre-fault behaviour."""

    @pytest.mark.parametrize("backend", ["htsim", "lgs"])
    def test_default_and_explicit_empty_identical(self, backend):
        schedule = all_to_all(8, 1 << 16)
        base = _fat_tree_config(seed=3)
        r0 = simulate(schedule, backend=backend, config=base)
        r1 = simulate(
            schedule, backend=backend, config=base.replace(faults=FaultSchedule())
        )
        r2 = simulate(schedule, backend=backend, config=base.replace(faults=None))
        assert r0.digest() == r1.digest() == r2.digest()
        assert r0.message_records == r1.message_records == r2.message_records
        assert r0.stats == r1.stats == r2.stats

    @pytest.mark.parametrize("backend", ["htsim", "lgs"])
    def test_topology_aware_empty_identical(self, backend):
        schedule = all_to_all(8, 1 << 14)
        base = SimulationConfig(topology="torus", torus_dims=(2, 2), torus_hosts_per_node=2, routing="adaptive", seed=5)
        r0 = simulate(schedule, backend=backend, config=base)
        r1 = simulate(schedule, backend=backend, config=base.replace(faults=FaultSchedule()))
        assert r0.digest() == r1.digest()
        assert r0.message_records == r1.message_records

    @pytest.mark.parametrize("backend", ["htsim", "lgs"])
    def test_oracle_control_plane_is_the_default_behaviour(self, backend):
        """``control_plane="oracle"`` is bit-identical to the pre-convergence
        code path, with and without faults, at any delay setting (the delay
        knobs must be dead parameters under the oracle)."""
        schedule = all_to_all(8, 1 << 16)
        fs = FaultSchedule(
            events=(
                FaultEvent(3_000, LINK_DOWN, "tor0->core0"),
                FaultEvent(3_000, LINK_DOWN, "core0->tor0"),
            )
        )
        for faults in (None, fs):
            base = _fat_tree_config(seed=3) if faults is None else _fat_tree_config(
                seed=3, faults=faults
            )
            r0 = simulate(schedule, backend=backend, config=base)
            r1 = simulate(
                schedule, backend=backend, config=base.replace(control_plane="oracle")
            )
            r2 = simulate(
                schedule,
                backend=backend,
                config=base.replace(control_plane="oracle", cp_propagation_ns=999_999),
            )
            assert r0.digest() == r1.digest() == r2.digest()
            assert r0.message_records == r1.message_records == r2.message_records
            assert r0.stats == r1.stats == r2.stats

    def test_unknown_control_plane_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown control plane 'bgp'"):
            SimulationConfig(control_plane="bgp")
        with pytest.raises(ValueError, match="non-negative"):
            SimulationConfig(cp_propagation_ns=-1)


# ------------------------------------------------------------------ packet backend
class TestPacketBackendFaults:
    def test_static_failure_avoids_dead_links(self):
        schedule = all_to_all(8, 1 << 16)
        fs = FaultSchedule(failed_links=("tor0->core0", "core0->tor0"))
        config = _fat_tree_config(faults=fs)
        from repro.network.packet.backend import PacketBackend
        from repro.scheduler import GoalScheduler

        started = []

        class Recording(PacketBackend):
            # flows leave ``live_flows`` on delivery, so keep them as they start
            def _start_send(self, time, payload):
                started.append(super()._start_send(time, payload))

        backend = Recording()
        result = GoalScheduler(schedule, backend=backend, config=config).run()
        assert result.stats.messages_delivered == 8 * 7
        dead = {
            _link_id(backend.topology, "tor0->core0"),
            _link_id(backend.topology, "core0->tor0"),
        }
        assert len(started) == 8 * 7 and not backend.live_flows
        for flow in started:
            assert not dead & set(flow.route)
            assert not dead & set(flow.ack_route)

    def test_mid_run_failure_reroutes_in_flight_packets(self):
        schedule = all_to_all(8, 1 << 20)
        names = [f"tor{t}->core{c}" for t in (0, 1) for c in (0, 1, 2)]
        names += [f"core{c}->tor{t}" for t in (0, 1) for c in (0, 1, 2)]
        fs = FaultSchedule(events=tuple(FaultEvent(30_000, LINK_DOWN, n) for n in names))
        config = _fat_tree_config()
        healthy = simulate(schedule, backend="htsim", config=config)
        faulted = simulate(schedule, backend="htsim", config=config.replace(faults=fs))
        assert faulted.stats.messages_delivered == healthy.stats.messages_delivered
        assert faulted.stats.packets_rerouted > 0
        assert faulted.finish_time_ns > healthy.finish_time_ns

    def test_link_flap_recovers(self):
        schedule = all_to_all(8, 1 << 18)
        fs = FaultSchedule(
            events=(
                FaultEvent(20_000, LINK_DOWN, "tor0->core0"),
                FaultEvent(20_000, LINK_DOWN, "core0->tor0"),
                FaultEvent(60_000, LINK_UP, "tor0->core0"),
                FaultEvent(60_000, LINK_UP, "core0->tor0"),
            )
        )
        config = _fat_tree_config()
        healthy = simulate(schedule, backend="htsim", config=config)
        flapped = simulate(schedule, backend="htsim", config=config.replace(faults=fs))
        assert flapped.stats.messages_delivered == healthy.stats.messages_delivered

    def test_switch_drain_event(self):
        schedule = all_to_all(8, 1 << 18)
        config = _fat_tree_config()
        from repro.network.topology import build_topology

        topo = build_topology(config, 8)
        core0 = topo.core_switches[0]
        fs = FaultSchedule(
            events=(
                FaultEvent(10_000, SWITCH_DRAIN, core0),
                FaultEvent(80_000, SWITCH_UNDRAIN, core0),
            )
        )
        result = simulate(schedule, backend="htsim", config=config.replace(faults=fs))
        assert result.stats.messages_delivered == 8 * 7

    def test_partition_raises_at_injection(self):
        schedule = all_to_all(8, 1 << 14)
        names = [f"tor0->core{c}" for c in range(4)]
        fs = FaultSchedule(failed_links=tuple(names))
        with pytest.raises(NetworkPartitionError, match="no surviving route"):
            simulate(schedule, backend="htsim", config=_fat_tree_config(faults=fs))

    def test_degraded_link_slows_flows(self):
        schedule = incast(5, 1 << 18)
        config = SimulationConfig(topology="single_switch")
        healthy = simulate(schedule, backend="htsim", config=config)
        degraded = simulate(
            schedule,
            backend="htsim",
            config=config.replace(
                faults=FaultSchedule(degraded_links=(("switch->host0", 0.25),))
            ),
        )
        assert degraded.finish_time_ns > healthy.finish_time_ns


# ----------------------------------------------------------------- LogGOPS backend
class TestLogGOPSBackendFaults:
    def test_capacity_loss_inflates_serialisation(self):
        schedule = all_to_all(8, 1 << 18)
        config = _fat_tree_config()
        healthy = simulate(schedule, backend="lgs", config=config)
        faulted = simulate(
            schedule,
            backend="lgs",
            config=config.replace(
                faults=FaultSchedule(link_failure_rate=0.25, failure_seed=1)
            ),
        )
        assert faulted.finish_time_ns > healthy.finish_time_ns

    def test_monotone_in_failure_rate(self):
        schedule = all_to_all(8, 1 << 18)
        config = _fat_tree_config()
        finishes = [
            simulate(
                schedule,
                backend="lgs",
                config=config.replace(
                    faults=FaultSchedule(link_failure_rate=rate, failure_seed=1)
                    if rate
                    else FaultSchedule()
                ),
            ).finish_time_ns
            for rate in (0.0, 0.25, 0.5)
        ]
        assert finishes == sorted(finishes)
        assert finishes[-1] > finishes[0]

    def test_timed_event_changes_late_messages_only(self):
        schedule = all_to_all(8, 1 << 18)
        config = _fat_tree_config()
        healthy = simulate(schedule, backend="lgs", config=config)
        late = healthy.finish_time_ns + 1_000
        fs = FaultSchedule(events=(FaultEvent(late, LINK_DOWN, "tor0->core0"),))
        after_end = simulate(schedule, backend="lgs", config=config.replace(faults=fs))
        assert after_end.finish_time_ns == healthy.finish_time_ns
        early = FaultSchedule(events=(FaultEvent(0, LINK_DOWN, "tor0->core0"),))
        degraded = simulate(schedule, backend="lgs", config=config.replace(faults=early))
        assert degraded.finish_time_ns > healthy.finish_time_ns

    def test_all_capacity_lost_raises(self):
        schedule = all_to_all(8, 1 << 14)
        names = [f"tor{t}->core{c}" for t in (0, 1) for c in range(4)]
        names += [f"core{c}->tor{t}" for t in (0, 1) for c in range(4)]
        fs = FaultSchedule(failed_links=tuple(names))
        with pytest.raises(NetworkPartitionError, match="capacity"):
            simulate(schedule, backend="lgs", config=_fat_tree_config(faults=fs))

    def test_topology_aware_mode_routes_around_failures(self):
        schedule = all_to_all(8, 1 << 14)
        # fat tree with ECMP diversity: killing one core uplink leaves the
        # other cores as surviving candidates
        config = _fat_tree_config(loggops_use_topology=True)
        result = simulate(
            schedule,
            backend="lgs",
            config=config.replace(
                faults=FaultSchedule(failed_links=("tor0->core0", "core0->tor0"))
            ),
        )
        assert result.stats.messages_delivered == 8 * 7
        links = result.links
        loads = {name: b for name, b in zip(links.names, links.routed_bytes) if b}
        assert "tor0->core0" not in loads and "core0->tor0" not in loads
        assert any(name.startswith("tor0->core") for name in loads)


# ------------------------------------------------------- detours around a dead pair
class TestDetourAroundDeadMinimalRoutes:
    """On the default 16-host dragonfly, ``r0.0->r0.1`` is the one minimal route
    from every host of ``r0.0`` to every host of ``r0.1``: with it down, Valiant
    and adaptive routing must detour rather than declare the pair partitioned."""

    DEAD = "r0.0->r0.1"

    def _topology(self):
        import numpy as np

        from repro.network.topology import build_topology

        topo = build_topology(SimulationConfig(topology="dragonfly"), 16)
        topo.fail_links([_link_id(topo, self.DEAD)])
        return topo, np.random.default_rng(0)

    def _assert_detour(self, topo, route, src, dst):
        links = [topo.links[l] for l in route]
        assert links[0].src == src and links[-1].dst == dst
        assert all(a.dst == b.src for a, b in zip(links, links[1:]))
        assert not topo.failed_links & set(route)

    @pytest.mark.parametrize("routing", ["adaptive", "valiant"])
    @pytest.mark.parametrize("control_plane", ["oracle", "ls"])
    @pytest.mark.parametrize("backend", ["htsim", "lgs"])
    def test_all_to_all_completes_with_the_only_minimal_route_down(
        self, routing, control_plane, backend
    ):
        schedule = all_to_all(16, 8192)
        config = SimulationConfig(
            topology="dragonfly",
            routing=routing,
            control_plane=control_plane,
            loggops_use_topology=backend == "lgs",
            faults=FaultSchedule(events=(FaultEvent(2000, LINK_DOWN, self.DEAD),)),
        )
        result = simulate(schedule, backend=backend, config=config)
        assert result.ops_completed == schedule.num_ops()
        assert result.stats.messages_delivered == 16 * 15

    def test_adaptive_takes_the_cheapest_surviving_detour(self):
        from repro.network.routing import AdaptiveRouting

        topo, rng = self._topology()
        for src, dst in ((3, 4), (0, 7)):
            route = AdaptiveRouting(topo, rng).select_route(src, dst, link_load=[0] * len(topo.links))
            self._assert_detour(topo, route, src, dst)

    def test_valiant_detours_when_every_drawn_detour_died(self):
        from repro.network.routing import ValiantRouting

        topo, rng = self._topology()
        # no detour is drawn at all: the scan over intermediates must find one
        route = ValiantRouting(topo, rng, count=0).select_route(3, 4)
        self._assert_detour(topo, route, 3, 4)
        # host3 -> r0.0 -> r0.x -> host -> r0.x -> r0.1 -> host4, through another router
        assert len(route) == 6

    def test_a_pair_cut_off_from_every_host_still_raises(self):
        from repro.network.routing import AdaptiveRouting, ValiantRouting

        topo, rng = self._topology()
        topo.fail_links([_link_id(topo, "r0.1->host4")])
        for strategy in (AdaptiveRouting(topo, rng), ValiantRouting(topo, rng, count=0)):
            with pytest.raises(NetworkPartitionError, match="from host 3 to host 4"):
                strategy.select_route(3, 4, link_load=[0] * len(topo.links))


# ------------------------------------------------------------------- config layer
class TestConfigIntegration:
    def test_config_rejects_non_schedule(self):
        with pytest.raises(ValueError, match="FaultSchedule"):
            SimulationConfig(faults="tor0->core0")

    def test_none_normalises_to_empty(self):
        assert SimulationConfig(faults=None).faults == FaultSchedule()

    def test_describe_includes_faults(self):
        fs = FaultSchedule(failed_links=("tor0->core0",))
        desc = SimulationConfig(faults=fs).describe()
        assert desc["faults"]["failed_links"] == ("tor0->core0",)

    def test_replace_carries_faults(self):
        fs = FaultSchedule(link_failure_rate=0.1)
        cfg = SimulationConfig(faults=fs).replace(seed=9)
        assert cfg.faults is fs


# ------------------------------------------------------------------ cluster layer
class TestClusterFaults:
    def test_fault_free_baseline_attributes_fault_slowdown(self):
        from repro.cluster import ClusterJob, run_cotenant

        jobs = [
            ClusterJob(all_to_all(4, 1 << 16), name="a"),
            ClusterJob(all_to_all(4, 1 << 16), name="b"),
        ]
        config = _fat_tree_config()
        faults = FaultSchedule(failed_links=("tor0->core0", "core0->tor0"))
        degraded = run_cotenant(
            jobs,
            cluster_nodes=8,
            strategy="fragmented",
            group_size=2,
            backend="htsim",
            config=config.replace(faults=faults),
            fault_free_baseline=True,
        )
        faulted_baseline = run_cotenant(
            jobs,
            cluster_nodes=8,
            strategy="fragmented",
            group_size=2,
            backend="htsim",
            config=config.replace(faults=faults),
        )
        for healthy_base, degraded_base in zip(
            degraded.outcomes, faulted_baseline.outcomes
        ):
            # same co-tenant run, different baselines: the healthy-fabric
            # baseline can only be faster, so attributed slowdown is >=
            assert healthy_base.runtime_ns == degraded_base.runtime_ns
            assert healthy_base.slowdown >= degraded_base.slowdown


# ------------------------------------------------------------------ sweep layer
class TestResilienceSweep:
    def test_grid_shape_and_baselines(self):
        from repro.sweep import resilience_sweep

        schedule = all_to_all(8, 1 << 14)
        entries = resilience_sweep(
            schedule,
            {"ft": _fat_tree_config()},
            failure_rates=(0.0, 0.25),
            routings=("minimal", "adaptive"),
            backend="htsim",
            failure_seed=1,
        )
        assert len(entries) == 4
        for e in entries:
            assert e.baseline_finish_ns > 0
            if e.failure_rate == 0.0:
                assert e.slowdown == 1.0
                assert e.failed_links == 0
            else:
                assert e.failed_links > 0

    def test_healthy_baseline_injected_when_rates_omit_zero(self):
        from repro.sweep import resilience_sweep

        schedule = all_to_all(8, 1 << 14)
        entries = resilience_sweep(
            schedule,
            {"ft": _fat_tree_config()},
            failure_rates=(0.25,),
            routings=("minimal",),
            backend="lgs",
            failure_seed=1,
        )
        # the healthy cell is added as the slowdown baseline
        assert [e.failure_rate for e in entries] == [0.0, 0.25]
        assert entries[1].baseline_finish_ns == entries[0].finish_time_ns
        assert entries[1].slowdown > 1.0

    def test_parallel_matches_serial(self):
        from repro.sweep import resilience_sweep

        schedule = all_to_all(8, 1 << 14)
        kwargs = dict(
            failure_rates=(0.0, 0.25),
            routings=("minimal",),
            backend="lgs",
            failure_seed=2,
        )
        serial = resilience_sweep(schedule, {"ft": _fat_tree_config()}, **kwargs)
        parallel = resilience_sweep(
            schedule, {"ft": _fat_tree_config()}, parallel=2, **kwargs
        )
        assert serial == parallel

    def test_empty_rates_rejected(self):
        from repro.sweep import resilience_sweep

        with pytest.raises(ValueError, match="failure rate"):
            resilience_sweep(all_to_all(4, 1024), {"ft": _fat_tree_config()}, failure_rates=())

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 1.0, -0.1])
    def test_rates_are_checked_before_any_cable_draw(self, rate, monkeypatch):
        # nan and inf used to reach the draw first (int(nan), an overflow)
        from repro.network import faults
        from repro.sweep import resilience_sweep

        def no_draw(*args):
            raise AssertionError("drew cables for an invalid rate")

        monkeypatch.setattr(faults, "random_failed_link_ids", no_draw)
        with pytest.raises(ValueError, match=rf"link_failure_rate must be in \[0, 1\), got {rate}"):
            resilience_sweep(
                all_to_all(4, 1024), {"ft": _fat_tree_config()}, failure_rates=(0.1, rate)
            )
