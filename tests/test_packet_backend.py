"""Tests for the packet-level backend: timing, queues, drops, ECN, NDP."""
import pytest

from repro.goal import GoalBuilder
from repro.network import SimulationConfig
from repro.network.packet import PacketBackend
from repro.scheduler import GoalScheduler, simulate
from repro.schedgen import incast


def _pingpong(size):
    b = GoalBuilder(2)
    b.rank(0).send(size, dst=1, tag=1)
    b.rank(1).recv(size, src=0, tag=1)
    return b.build()


class TestBasics:
    def test_single_message_time_is_sane(self):
        cfg = SimulationConfig(topology="single_switch", link_latency=500, host_overhead=0)
        res = simulate(_pingpong(1 << 20), backend="htsim", config=cfg)
        serialization = (1 << 20) / cfg.link_bandwidth
        # lower bound: serialisation over one link + 2 hops of latency
        assert res.finish_time_ns >= serialization + 2 * cfg.link_latency
        # upper bound: within 3x of the ideal (windowing + store-and-forward)
        assert res.finish_time_ns <= 3 * serialization + 20 * cfg.link_latency

    def test_small_message_single_packet(self):
        cfg = SimulationConfig(topology="single_switch")
        res = simulate(_pingpong(100), backend="htsim", config=cfg)
        assert res.stats.packets_sent == 1
        assert res.stats.packets_delivered == 1
        # the packet's ACK came back: nothing timed out into a retransmission
        assert res.stats.retransmissions == 0

    def test_packet_count_matches_mtu_segmentation(self):
        cfg = SimulationConfig(topology="single_switch", mtu=4096)
        size = 10 * 4096 + 1
        res = simulate(_pingpong(size), backend="htsim", config=cfg)
        assert res.stats.packets_sent == 11

    def test_bytes_delivered(self):
        cfg = SimulationConfig(topology="single_switch")
        res = simulate(_pingpong(123456), backend="htsim", config=cfg)
        assert res.stats.bytes_delivered == 123456

    def test_recv_posted_late_still_completes(self):
        b = GoalBuilder(2)
        b.rank(0).send(8192, dst=1, tag=1)
        c = b.rank(1).calc(1_000_000)
        b.rank(1).recv(8192, src=0, tag=1, requires=[c])
        res = simulate(b.build(), backend="htsim", config=SimulationConfig(topology="single_switch"))
        assert res.ops_completed == 3
        assert res.finish_time_ns >= 1_000_000

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4, seed=42)
        sched = incast(8, 1 << 18)
        r1 = simulate(sched, backend="htsim", config=cfg)
        r2 = simulate(sched, backend="htsim", config=cfg)
        assert r1.finish_time_ns == r2.finish_time_ns
        assert r1.stats.packets_sent == r2.stats.packets_sent


class TestCongestionBehaviour:
    def test_incast_congests_receiver_downlink(self):
        cfg = SimulationConfig(topology="single_switch", buffer_size=1 << 16)
        sched = incast(9, 1 << 19)
        res = simulate(sched, backend="htsim", config=cfg)
        # eight senders into one downlink with tiny buffers must mark or drop
        assert res.stats.packets_ecn_marked + res.stats.packets_dropped > 0

    def test_drops_recovered_by_retransmission(self):
        cfg = SimulationConfig(topology="single_switch", buffer_size=1 << 14, initial_window_packets=64)
        sched = incast(9, 1 << 19)
        res = simulate(sched, backend="htsim", config=cfg)
        assert res.ops_completed == sched.num_ops()
        if res.stats.packets_dropped:
            assert res.stats.retransmissions > 0

    def test_oversubscription_slows_cross_tor_traffic(self):
        sched = incast(16, 1 << 19, receiver=0, senders=list(range(8, 16)))
        base = SimulationConfig(topology="fat_tree", nodes_per_tor=8, oversubscription=1.0)
        over = base.replace(oversubscription=8.0)
        t_base = simulate(sched, backend="htsim", config=base).finish_time_ns
        t_over = simulate(sched, backend="htsim", config=over).finish_time_ns
        assert t_over >= t_base

    def test_ndp_trims_instead_of_dropping(self):
        cfg = SimulationConfig(
            topology="single_switch", buffer_size=1 << 14, cc_algorithm="ndp", initial_window_packets=64
        )
        sched = incast(9, 1 << 19)
        res = simulate(sched, backend="htsim", config=cfg)
        assert res.stats.packets_trimmed > 0
        assert res.stats.packets_dropped == 0
        assert res.ops_completed == sched.num_ops()

    def test_link_record_exposed(self):
        cfg = SimulationConfig(topology="single_switch", buffer_size=1 << 15)
        backend = PacketBackend()
        res = GoalScheduler(incast(5, 1 << 18), backend=backend, config=cfg).run()
        links = res.links
        assert links.names == tuple(link.name for link in backend.topology.links)
        assert len(links.max_queued_bytes) == len(links.names)
        assert links.max_queued_bytes.max() == res.stats.max_queue_bytes > 0
        assert links.drops.sum() == res.stats.packets_dropped > 0
        assert (links.busy_ns > 0).any() and not links.routed_bytes.any()

    def test_mct_statistics_present(self):
        cfg = SimulationConfig(topology="single_switch")
        res = simulate(incast(5, 1 << 18), backend="htsim", config=cfg)
        mct = res.mct_statistics()
        assert mct["count"] == 4
        assert mct["max"] >= mct["p99"] >= mct["mean"] > 0


class TestCongestionControlComparison:
    def _run(self, cc, oversubscription=1.0):
        cfg = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            oversubscription=oversubscription,
            cc_algorithm=cc,
            buffer_size=1 << 17,
        )
        sched = incast(16, 1 << 19, receiver=0, senders=list(range(8, 16)))
        return simulate(sched, backend="htsim", config=cfg)

    def test_all_algorithms_complete(self):
        for cc in ("mprdma", "swift", "dctcp", "ndp", "fixed"):
            res = self._run(cc)
            assert res.stats.messages_delivered == 8

    def test_ecn_based_cc_marks_under_oversubscription(self):
        res = self._run("mprdma", oversubscription=8.0)
        assert res.stats.packets_ecn_marked > 0
