"""The sharded packet engine (``shards > 1``): its plan, its validation and
what it does with fewer hosts than shards.

The determinism contract (see ``repro.network.packet.sharded``) is held by
the ``sharded/*`` rows of ``tests/differential.py``:

* configurations that consume no engine randomness (single-candidate
  routes, traffic outside the probabilistic ECN band) are bit-identical to
  the serial engine for every shard count, timed fault schedules and
  convergent control planes included;
* configurations that do consume randomness (multi-candidate ECMP,
  Valiant, fault re-picks over multi-candidate tables) are bit-identical
  across every shard count >= 2;
* load-adaptive routing is bit-identical across shard counts >= 2; against
  the serial engine it is a documented
  approximation (barrier snapshots vs live queue depths), so only conserved
  totals are compared there;
* the packet ledger balances for every shard count, drops and faults
  included.
"""
from __future__ import annotations

import numpy as np
import pytest

import differential
from repro.network.config import SimulationConfig
from repro.network.packet.sharded import _NO_CUT, plan_shards, run_sharded
from repro.network.topology import build_topology
from repro.scheduler import GoalScheduler
from repro.schedgen.synthetic import all_to_all
from differential import ONE_PATH_TREE, allreduce, flap
from inline_workers import inline_workers


def _run(schedule, config):
    scheduler = GoalScheduler(
        schedule, backend="htsim", config=config, validate=False
    )
    result = scheduler.run()
    return result, scheduler.events_executed


class TestMergePaths:
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
            allreduce(), backend="htsim", config=config, validate=False
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
                allreduce(), backend="lgs", config=config, validate=False
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
        schedule = allreduce(ranks=2, size=1024)
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


@pytest.mark.slow_sharded
class TestFaultSerialExactControlPlane:
    """The convergence records a sharded run reports."""

    @pytest.mark.parametrize("protocol", ["dv", "ls"])
    def test_convergence_record_structure(self, protocol):
        schedule = allreduce(size=1 << 15)
        config = ONE_PATH_TREE.replace(
            control_plane=protocol, faults=flap("tor0->core0", 3000, 3300)
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


class TestLazyEcnStreams:
    """A shard seeds a link's keyed ECN stream on the link's first draw in
    the probabilistic RED band, not at set-up."""

    def _ecn_seeds(self, name, monkeypatch):
        seeds = []
        real = np.random.default_rng

        def spy(seed=None):
            if isinstance(seed, tuple) and seed[1] == 0xEC:
                seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        sim = differential.INPUTS[name]()
        with inline_workers():  # the shards' set-up runs where the spy is
            result, _ = _run(sim.schedule, sim.config.replace(shards=2))
        return seeds, result.stats, len(build_topology(sim.config, sim.schedule.num_ranks).links)

    def test_a_run_outside_the_band_seeds_no_ecn_generator(self, monkeypatch):
        seeds, stats, _ = self._ecn_seeds("sharded/allreduce16-fat_tree-minimal-mprdma", monkeypatch)
        assert stats.packets_ecn_marked == 0
        assert seeds == []

    def test_a_marking_run_seeds_only_the_links_that_draw(self, monkeypatch):
        seeds, stats, links = self._ecn_seeds("sharded/alltoall16-drops", monkeypatch)
        assert stats.packets_ecn_marked > 0
        assert 0 < len(seeds) < 2 * links  # each of the two shards has a queue per link
        assert len(set(seeds)) == len(seeds)  # one stream per link, seeded once
