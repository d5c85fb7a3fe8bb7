"""Differential tests for the sharded packet engine (``shards > 1``).

The determinism contract under test (see ``repro.network.packet.sharded``):

* configurations that consume no engine randomness (single-candidate
  routes, traffic outside the probabilistic ECN band) are **bit-identical**
  across ``shards`` in {1, 2, 4} — including timed fault schedules and
  convergent control planes (``time_to_recover_ns``, ``packets_blackholed``
  and the full :class:`ConvergenceRecord` list match the serial engine);
* configurations that do consume randomness (multi-candidate ECMP,
  Valiant, fault re-picks over multi-candidate tables) are bit-identical
  across every shard count >= 2 (the keyed streams depend only on
  simulated identities, never on shard layout);
* load-adaptive routing is bit-identical across shard counts >= 2 at any
  snapshot cadence; against the serial engine it is a documented
  approximation (barrier snapshots vs live queue depths), so only
  conserved totals are compared there;
* the packet ledger ``sent == delivered + dropped + lost_to_faults +
  blackholed`` balances for every shard count, drops and faults included.

The heavyweight grids run their shards in-process (``inline_workers``);
the worker processes themselves are under test in ``tests/test_workers.py``.
"""
from __future__ import annotations

import pytest

from repro.collectives import build_collective_schedule
from repro.network.config import SimulationConfig
from repro.network.faults import (
    LINK_DOWN,
    LINK_UP,
    SWITCH_DRAIN,
    SWITCH_UNDRAIN,
    FaultEvent,
    FaultSchedule,
)
from repro.network.packet.sharded import (
    _NO_CUT,
    plan_shards,
    run_sharded,
)
from repro.network.topology import build_topology
from repro.scheduler import GoalScheduler
from repro.schedgen.synthetic import all_to_all
from inline_workers import inline_workers


def _allreduce(ranks=16, size=4096):
    return build_collective_schedule(
        "allreduce", "recursive_doubling", ranks, size, name="shard-parity"
    )


def _run(schedule, config):
    scheduler = GoalScheduler(
        schedule, backend="htsim", config=config, validate=False
    )
    result = scheduler.run()
    return result, scheduler.events_executed


def _flap(link, down_ns, up_ns):
    return FaultSchedule(
        events=(
            FaultEvent(down_ns, LINK_DOWN, link),
            FaultEvent(up_ns, LINK_UP, link),
        )
    )


def _fingerprint(result):
    """Everything that must match bit-for-bit, minus wall clock."""
    return (
        result.finish_time_ns,
        tuple(result.rank_finish_times_ns),
        result.ops_completed,
        sorted(result.message_records),
        sorted(result.group_finish_times_ns.items()),
    )


def _stats_tuple(stats):
    """Stats fields that are layout-invariant (cache split is not: a shard
    cannot share its neighbour's ACK-route lookup, so only hit+miss totals
    are comparable against the serial engine)."""
    return (
        stats.messages_delivered,
        stats.bytes_delivered,
        stats.packets_sent,
        stats.packets_delivered,
        stats.packets_dropped,
        stats.packets_trimmed,
        stats.packets_ecn_marked,
        stats.retransmissions,
        stats.acks_sent,
        stats.packets_lost_to_faults,
        stats.packets_blackholed,
        sorted(stats.queue_drop_events.items()),
    )


def _assert_ledger(stats):
    assert stats.packets_sent == (
        stats.packets_delivered
        + stats.packets_dropped
        + stats.packets_lost_to_faults
        + stats.packets_blackholed
    ), "packet ledger must balance"


# RNG-free configurations: serial and sharded engines must agree exactly.
SERIAL_EXACT = [
    pytest.param(
        SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma"),
        id="fat_tree-minimal-mprdma",
    ),
    pytest.param(
        SimulationConfig(topology="dragonfly", routing="minimal", cc_algorithm="swift"),
        id="dragonfly-minimal-swift",
    ),
    pytest.param(
        SimulationConfig(topology="torus", routing="minimal", cc_algorithm="ndp"),
        id="torus-minimal-ndp",
    ),
]


class TestSerialExactParity:
    """shards in {1, 2, 4} bit-identical on randomness-free configurations."""

    @pytest.mark.parametrize("config", SERIAL_EXACT)
    def test_bit_identical_across_shard_counts(self, config):
        schedule = _allreduce()
        reference = None
        for shards in (1, 2, 4):
            result, events = _run(schedule, config.replace(shards=shards))
            _assert_ledger(result.stats)
            probe = (
                _fingerprint(result),
                _stats_tuple(result.stats),
                result.stats.route_cache_hits + result.stats.route_cache_misses,
                events,
            )
            if reference is None:
                reference = probe
            else:
                assert probe == reference, f"shards={shards} diverged"

    def test_cache_totals_conserved_but_split_may_differ(self):
        schedule = _allreduce()
        config = SimulationConfig(
            topology="fat_tree", routing="minimal", cc_algorithm="mprdma"
        )
        serial, _ = _run(schedule, config)
        sharded, _ = _run(schedule, config.replace(shards=4))
        assert (
            serial.stats.route_cache_hits + serial.stats.route_cache_misses
            == sharded.stats.route_cache_hits + sharded.stats.route_cache_misses
        )


class TestShardCountInvariance:
    """RNG-consuming configs: identical across all shard counts >= 2."""

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                SimulationConfig(
                    topology="dragonfly",
                    routing="valiant",
                    cc_algorithm="mprdma",
                    seed=7,
                ),
                id="dragonfly-valiant",
            ),
            pytest.param(
                SimulationConfig(
                    topology="fat_tree",
                    nodes_per_tor=4,
                    routing="minimal",
                    cc_algorithm="dctcp",
                    seed=7,
                ),
                id="fat_tree-multipath-ecmp",
            ),
        ],
    )
    def test_invariant_across_shard_counts(self, config):
        schedule = _allreduce()
        reference = None
        for shards in (2, 3, 4):
            result, events = _run(schedule, config.replace(shards=shards))
            _assert_ledger(result.stats)
            probe = (_fingerprint(result), _stats_tuple(result.stats), events)
            if reference is None:
                reference = probe
            else:
                assert probe == reference, f"shards={shards} diverged"


class TestDropLedger:
    """Congested fabric (tiny buffers): the ledger balances under loss and
    delivered payload matches the serial engine (drop *timing* may shift a
    window under the deferred-loss barrier, so no bit-identity here)."""

    def test_ledger_conserved_under_drops(self):
        schedule = all_to_all(16, 1 << 14)
        config = SimulationConfig(
            topology="fat_tree",
            routing="minimal",
            cc_algorithm="mprdma",
            buffer_size=8192,
        )
        serial, _ = _run(schedule, config)
        assert serial.stats.packets_dropped > 0, "scenario must actually drop"
        _assert_ledger(serial.stats)
        for shards in (2, 4):
            result, _ = _run(schedule, config.replace(shards=shards))
            _assert_ledger(result.stats)
            assert result.stats.packets_dropped > 0
            assert (
                result.stats.messages_delivered == serial.stats.messages_delivered
            )
            assert result.stats.bytes_delivered == serial.stats.bytes_delivered


class TestMergePaths:
    def test_job_stats_merge_across_shards(self):
        from repro.cluster import ClusterJob, build_cotenant_schedule

        jobs = [
            ClusterJob(all_to_all(4, 1 << 12, name="job-a")),
            ClusterJob(all_to_all(4, 1 << 12, name="job-b")),
        ]
        plan = build_cotenant_schedule(jobs, strategy="packed")
        config = SimulationConfig(
            topology="fat_tree",
            routing="minimal",
            cc_algorithm="mprdma",
            job_tag_stride=plan.tag_stride,
        )
        serial, _ = _run(plan.schedule, config)
        # 4 shards over two 4-rank jobs: each job spans two shards, so the
        # merge must *sum* per-shard JobStats, not just relabel them
        sharded, _ = _run(plan.schedule, config.replace(shards=4))
        assert serial.job_stats and set(sharded.job_stats) == set(serial.job_stats)
        for job, js in serial.job_stats.items():
            sj = sharded.job_stats[job]
            assert sj.messages_delivered == js.messages_delivered
            assert sj.bytes_delivered == js.bytes_delivered
            assert sj.link_bytes == js.link_bytes
        assert _fingerprint(sharded) == _fingerprint(serial)

    def test_group_finish_times_merge_across_shards(self):
        schedule = _allreduce()
        config = SimulationConfig(
            topology="fat_tree", routing="minimal", cc_algorithm="mprdma"
        )
        op_groups = [
            [rank % 2] * len(ops) for rank, ops in enumerate(schedule.ranks)
        ]

        def run(shards):
            scheduler = GoalScheduler(
                schedule,
                backend="htsim",
                config=config.replace(shards=shards),
                validate=False,
                op_groups=op_groups,
            )
            return scheduler.run()

        serial, sharded = run(1), run(2)
        assert set(serial.group_finish_times_ns) == {0, 1}
        assert sharded.group_finish_times_ns == serial.group_finish_times_ns

    def test_single_host_topology_clamps_to_serial_engine(self):
        schedule = all_to_all(1, 1 << 10)
        config = SimulationConfig(
            topology="single_switch", routing="minimal", shards=4
        )
        result, events = run_sharded(schedule, config.replace(shards=4))
        direct, direct_events = _run(schedule, config.replace(shards=1))
        assert result.finish_time_ns == direct.finish_time_ns
        assert events == direct_events


class TestValidation:
    def _scheduler(self, config):
        return GoalScheduler(
            _allreduce(), backend="htsim", config=config, validate=False
        )

    def test_short_retransmit_timeout_rejected(self):
        config = SimulationConfig(
            topology="fat_tree", shards=2, min_retransmit_timeout=1
        )
        with pytest.raises(ValueError, match="min_retransmit_timeout"):
            self._scheduler(config).run()

    def test_non_packet_backend_rejected(self):
        config = SimulationConfig(shards=2)
        with pytest.raises(ValueError, match="packet backend"):
            GoalScheduler(
                _allreduce(), backend="lgs", config=config, validate=False
            ).run()

    def test_shards_below_one_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            SimulationConfig(shards=0)


class TestShardPlan:
    def test_hosts_partition_contiguously(self):
        config = SimulationConfig(topology="fat_tree")
        topology = build_topology(config, 16)
        plan = plan_shards(topology, 16, 4)
        owners = plan.rank_owner
        assert sorted(owners) == list(owners), "host blocks must be contiguous"
        assert set(owners) == {0, 1, 2, 3}
        assert sorted(r for rs in plan.shard_ranks for r in rs) == list(range(16))

    def test_switch_follows_first_attached_host(self):
        config = SimulationConfig(topology="fat_tree")
        topology = build_topology(config, 16)
        plan = plan_shards(topology, 16, 2)
        for host in range(topology.num_hosts):
            tor = topology.attachment(host)
            first = min(
                h for h in range(topology.num_hosts) if topology.attachment(h) == tor
            )
            assert plan.device_owner[tor] == plan.rank_owner[first]

    def test_lookahead_is_min_cut_latency(self):
        config = SimulationConfig(topology="fat_tree")
        topology = build_topology(config, 16)
        plan = plan_shards(topology, 16, 4)
        owner = plan.device_owner
        cut = [
            link.latency
            for link in topology.links
            if owner[link.src] != owner[link.dst]
        ]
        assert cut, "4-way split of a fat tree must cut links"
        assert plan.lookahead == min(cut)
        assert plan.num_cut_links == len(cut)

    def test_single_shard_has_no_cut(self):
        config = SimulationConfig(topology="fat_tree")
        topology = build_topology(config, 16)
        plan = plan_shards(topology, 16, 1)
        assert plan.num_cut_links == 0
        assert plan.lookahead == _NO_CUT

    def test_oversharding_rejected(self):
        config = SimulationConfig(topology="fat_tree")
        topology = build_topology(config, 16)
        with pytest.raises(ValueError, match="shards must be in"):
            plan_shards(topology, 16, topology.num_hosts + 1)

    def test_run_clamps_shards_to_host_count(self):
        schedule = _allreduce(ranks=2, size=1024)
        config = SimulationConfig(
            topology="fat_tree", routing="minimal", cc_algorithm="mprdma"
        )
        serial, serial_events = _run(schedule, config)
        topology = build_topology(config, schedule.num_ranks)
        # asking for more shards than hosts clamps to num_hosts and still
        # matches a direct run; every rank finishes either way
        over = config.replace(shards=topology.num_hosts + 8)
        clamped, clamped_events = run_sharded(schedule, over)
        assert clamped.finish_time_ns == serial.finish_time_ns
        assert tuple(clamped.rank_finish_times_ns) == tuple(
            serial.rank_finish_times_ns
        )


# ------------------------------------------------------------------ fault grids
#
# Single-candidate tree: one ToR pair over one core (oversubscription 8
# leaves exactly one cross-ToR candidate), probabilistic ECN band closed.
# Every route decision is forced, so serial and sharded engines must agree
# bit-for-bit even across fault transitions and control-plane waves.
_ONE_PATH_TREE = SimulationConfig(
    topology="fat_tree",
    nodes_per_tor=8,
    oversubscription=8.0,
    routing="minimal",
    cc_algorithm="mprdma",
    ecn_kmin_frac=1.0,
    ecn_kmax_frac=1.0,
    seed=5,
)

# RNG-consuming faulted configurations: shard-count invariance (>= 2) and
# conservation against the serial engine, but no bit-identity with serial
# (multi-candidate re-picks draw from keyed streams the serial engine
# does not share).
FAULTED_INVARIANT = [
    pytest.param(
        SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="minimal",
            cc_algorithm="mprdma",
            faults=_flap("tor0->core0", 3000, 9000),
        ),
        id="fat_tree-minimal-flap",
    ),
    pytest.param(
        SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="valiant",
            cc_algorithm="dctcp",
            faults=_flap("tor0->core0", 3000, 9000),
        ),
        id="fat_tree-valiant-flap",
    ),
    pytest.param(
        SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="minimal",
            cc_algorithm="mprdma",
            faults=FaultSchedule(
                events=(
                    FaultEvent(3000, SWITCH_DRAIN, 18),
                    FaultEvent(9000, SWITCH_UNDRAIN, 18),
                )
            ),
        ),
        id="fat_tree-switch-drain",
    ),
    pytest.param(
        SimulationConfig(
            topology="dragonfly",
            routing="valiant",
            cc_algorithm="swift",
            faults=_flap("r0.0->r0.1", 3000, 9000),
        ),
        id="dragonfly-valiant-flap",
    ),
    pytest.param(
        # a 1 ns flap: the mask change itself is (almost) unobservable but
        # the epoch machinery, the re-pick sweep, and the rf=0 compression
        # cutoff all still fire — this cell caught the replica route-swap
        # bug during development
        SimulationConfig(
            topology="dragonfly",
            routing="valiant",
            cc_algorithm="swift",
            faults=_flap("r0.0->r0.1", 3000, 3001),
        ),
        id="dragonfly-1ns-flap",
    ),
    pytest.param(
        SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="minimal",
            cc_algorithm="mprdma",
            faults=FaultSchedule(
                events=(
                    FaultEvent(3000, LINK_DOWN, "tor0->core0"),
                    FaultEvent(5000, LINK_DOWN, "tor1->core1"),
                    FaultEvent(8000, LINK_UP, "tor0->core0"),
                    FaultEvent(9000, LINK_UP, "tor1->core1"),
                )
            ),
        ),
        id="fat_tree-overlapping-flaps",
    ),
    pytest.param(
        SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="adaptive",
            cc_algorithm="mprdma",
            faults=_flap("tor0->core0", 3000, 9000),
        ),
        id="fat_tree-adaptive-flap",
    ),
]


@pytest.mark.slow_sharded
class TestFaultedShardInvariance:
    """Timed fault schedules: identical across every shard count >= 2."""

    @pytest.mark.parametrize("config", FAULTED_INVARIANT)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_invariant_across_shard_counts(self, config, seed):
        schedule = _allreduce(size=1 << 15)
        config = config.replace(seed=seed)
        serial, _ = _run(schedule, config)
        reference = None
        with inline_workers():
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                probe = (_fingerprint(result), _stats_tuple(result.stats))
                if reference is None:
                    reference = probe
                else:
                    assert probe == reference, f"shards={shards} diverged"
                # conserved against serial even when timing is not
                assert (
                    result.stats.messages_delivered
                    == serial.stats.messages_delivered
                )
                assert result.stats.bytes_delivered == serial.stats.bytes_delivered

    def test_fault_accounting_shared_with_serial_ledger(self):
        # the faulted ledger balances serially too (same identity)
        schedule = _allreduce(size=1 << 15)
        config = FAULTED_INVARIANT[0].values[0].replace(seed=3)
        serial, _ = _run(schedule, config)
        _assert_ledger(serial.stats)


@pytest.mark.slow_sharded
class TestFaultSerialExactControlPlane:
    """Single-candidate tree + convergent control plane: bit-identical to
    the serial engine including TTR, blackholes, and ConvergenceRecords."""

    def _compare(self, config, expect_blackholed=None, expect_lost=None):
        schedule = _allreduce(size=1 << 15)
        serial, _ = _run(schedule, config)
        _assert_ledger(serial.stats)
        ttr = {"dv": 1300, "ls": 700}[config.control_plane]
        assert serial.stats.time_to_recover_ns == ttr
        if expect_blackholed is not None:
            assert serial.stats.packets_blackholed == expect_blackholed
        if expect_lost is not None:
            assert serial.stats.packets_lost_to_faults == expect_lost
        with inline_workers():
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                assert _fingerprint(result) == _fingerprint(serial), (
                    f"shards={shards} diverged from serial"
                )
                assert _stats_tuple(result.stats) == _stats_tuple(serial.stats)
                assert result.convergence_records == serial.convergence_records
        return serial

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    def test_idle_link_flap_recovers_serial_exact(self, protocol):
        # flap closes before the first learn: a pure convergence wave
        config = _ONE_PATH_TREE.replace(
            control_plane=protocol, faults=_flap("tor0->core0", 3000, 3300)
        )
        serial = self._compare(config, expect_blackholed=0, expect_lost=0)
        assert serial.stats.retransmissions == 0

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    def test_traffic_flap_loses_packets_serial_exact(self, protocol):
        # adjacent switches learn at +100 and shift in-flight packets to
        # the lost-to-faults path; the source ToR learns only after the
        # link is back, so no re-pick ever sees a partitioned truth
        config = _ONE_PATH_TREE.replace(
            control_plane=protocol, faults=_flap("core0->tor1", 12000, 12550)
        )
        serial = self._compare(config, expect_blackholed=0)
        assert serial.stats.packets_lost_to_faults > 0
        assert serial.stats.retransmissions > 0

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    def test_stale_switch_blackholes_serial_exact(self, protocol):
        # fault start tuned so a packet reaches the stale core inside the
        # 100 ns pre-learn window: it is forwarded into the black hole
        config = _ONE_PATH_TREE.replace(
            control_plane=protocol, faults=_flap("core0->tor1", 11074, 11624)
        )
        serial = self._compare(config)
        assert serial.stats.packets_blackholed > 0

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    def test_convergence_record_structure(self, protocol):
        schedule = _allreduce(size=1 << 15)
        config = _ONE_PATH_TREE.replace(
            control_plane=protocol, faults=_flap("tor0->core0", 3000, 3300)
        )
        with inline_workers():
            result, _ = _run(schedule, config.replace(shards=2))
        kinds = [record.kind for record in result.convergence_records]
        assert kinds == ["link_down", "link_up"]
        for record in result.convergence_records:
            assert record.protocol == protocol
            assert record.converged_at_ns > record.time_ns
            assert record.messages > 0
        assert result.stats.time_to_recover_ns == max(
            record.time_to_recover_ns for record in result.convergence_records
        )


@pytest.mark.slow_sharded
class TestControlPlaneShardInvariance:
    """Convergent control planes over multi-candidate fabrics: traffic
    timing may diverge from serial (ECMP draws), but shard counts >= 2
    agree bit-for-bit and the convergence wave itself — replayed
    identically on every shard's full-topology replica — matches serial
    exactly."""

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    @pytest.mark.parametrize(
        "base",
        [
            pytest.param(
                SimulationConfig(
                    topology="fat_tree",
                    nodes_per_tor=8,
                    routing="minimal",
                    cc_algorithm="mprdma",
                    seed=1,
                ),
                id="fat_tree-ecmp",
            ),
            pytest.param(
                SimulationConfig(
                    topology="dragonfly",
                    routing="valiant",
                    cc_algorithm="swift",
                    seed=1,
                ),
                id="dragonfly-valiant",
            ),
        ],
    )
    def test_wave_matches_serial_while_traffic_is_invariant(self, protocol, base):
        schedule = _allreduce(size=1 << 15)
        link = {"fat_tree": "tor0->core0", "dragonfly": "r0.0->r0.1"}[base.topology]
        config = base.replace(
            control_plane=protocol, faults=_flap(link, 3000, 6000)
        )
        serial, _ = _run(schedule, config)
        assert serial.stats.time_to_recover_ns > 0
        assert len(serial.convergence_records) == 2
        reference = None
        with inline_workers():
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                probe = (
                    _fingerprint(result),
                    _stats_tuple(result.stats),
                    result.convergence_records,
                )
                if reference is None:
                    reference = probe
                else:
                    assert probe == reference, f"shards={shards} diverged"
                # the wave is traffic-independent: serial-exact even here
                assert result.convergence_records == serial.convergence_records
                assert (
                    result.stats.time_to_recover_ns
                    == serial.stats.time_to_recover_ns
                )


@pytest.mark.slow_sharded
class TestAdaptiveSnapshots:
    """Load-adaptive routing under shards: barrier load snapshots replace
    live queue depths.  Semantics are a function of the snapshot cadence
    (a config knob), never of the shard layout."""

    @pytest.mark.parametrize("cadence", [0, 2000], ids=["auto", "explicit-2000"])
    def test_invariant_across_shard_counts(self, cadence):
        schedule = _allreduce(size=1 << 15)
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="adaptive",
            cc_algorithm="mprdma",
            seed=3,
            load_snapshot_ns=cadence,
        )
        reference = None
        with inline_workers():
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                probe = (_fingerprint(result), _stats_tuple(result.stats))
                if reference is None:
                    reference = probe
                else:
                    assert probe == reference, f"shards={shards} diverged"

    def test_documented_approximation_conserves_payload(self):
        # sharded adaptive routes on snapshots, serial on live loads: the
        # two may time differently (the documented approximation), but
        # both deliver every message exactly once
        schedule = _allreduce(size=1 << 15)
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="adaptive",
            cc_algorithm="mprdma",
            seed=3,
        )
        serial, _ = _run(schedule, config)
        with inline_workers():
            sharded, _ = _run(schedule, config.replace(shards=4))
        assert sharded.stats.messages_delivered == serial.stats.messages_delivered
        assert sharded.stats.bytes_delivered == serial.stats.bytes_delivered
        assert sharded.ops_completed == serial.ops_completed

    def test_cadence_with_faults_is_invariant(self):
        schedule = _allreduce(size=1 << 15)
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="adaptive",
            cc_algorithm="mprdma",
            seed=11,
            load_snapshot_ns=1500,
            faults=_flap("tor0->core0", 3000, 9000),
        )
        with inline_workers():
            probes = []
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                probes.append((_fingerprint(result), _stats_tuple(result.stats)))
        assert probes[0] == probes[1] == probes[2]

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError, match="load_snapshot_ns"):
            SimulationConfig(load_snapshot_ns=-1)


@pytest.mark.slow_sharded
class TestFaultLedgerAndCaches:
    def test_ledger_under_congestion_and_faults(self):
        # tiny buffers force congestion drops *while* a link flaps: every
        # loss class lands in its own ledger column and the sum closes
        schedule = all_to_all(16, 1 << 14)
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            routing="minimal",
            cc_algorithm="mprdma",
            buffer_size=8192,
            faults=_flap("tor0->core0", 3000, 9000),
        )
        serial, _ = _run(schedule, config)
        assert serial.stats.packets_dropped > 0
        _assert_ledger(serial.stats)
        with inline_workers():
            for shards in (2, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                _assert_ledger(result.stats)
                assert (
                    result.stats.messages_delivered
                    == serial.stats.messages_delivered
                )
                assert result.stats.bytes_delivered == serial.stats.bytes_delivered

    def test_cache_totals_conserved_under_faults(self):
        # fault epochs drop memoized alive tables on every shard exactly as
        # they do serially: total lookups (hits + misses) stay conserved on
        # a randomness-free configuration (the flap must close before the
        # cross-ToR wave posts at ~8.6 us: the one-path tree has no detour,
        # so an outage under live traffic would partition the serial run)
        schedule = _allreduce(size=1 << 15)
        config = _ONE_PATH_TREE.replace(faults=_flap("tor0->core0", 3000, 3300))
        serial, _ = _run(schedule, config)
        with inline_workers():
            sharded, _ = _run(schedule, config.replace(shards=4))
        assert (
            serial.stats.route_cache_hits + serial.stats.route_cache_misses
            == sharded.stats.route_cache_hits + sharded.stats.route_cache_misses
        )

    def test_oracle_faults_on_one_path_tree_serial_exact(self):
        # no control plane at all: the oracle path re-picks instantly; on
        # the single-candidate tree nothing draws randomness, so faulted
        # runs stay bit-identical to serial
        schedule = _allreduce(size=1 << 15)
        config = _ONE_PATH_TREE.replace(faults=_flap("tor0->core0", 3000, 3300))
        serial, _ = _run(schedule, config)
        _assert_ledger(serial.stats)
        with inline_workers():
            for shards in (2, 3, 4):
                result, _ = _run(schedule, config.replace(shards=shards))
                assert _fingerprint(result) == _fingerprint(serial)
                assert _stats_tuple(result.stats) == _stats_tuple(serial.stats)
