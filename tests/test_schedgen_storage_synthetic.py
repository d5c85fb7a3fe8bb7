"""Tests for the Direct Drive storage generator and the synthetic microbenchmarks."""
import pytest

from repro.goal import validate_schedule
from repro.goal.ops import OpType
from repro.network import SimulationConfig
from repro.schedgen import (
    all_to_all,
    incast,
    permutation,
    ring_allreduce_microbenchmark,
    storage_trace_to_goal,
    uniform_random_pairs,
)
from repro.schedgen.storage import CONTROL_BYTES, DirectDriveConfig, DirectDriveScheduleGenerator
from repro.scheduler import simulate
from repro.tracers.storage import FinancialWorkloadGenerator, SpcRecord, SpcTrace


class TestDirectDriveConfig:
    def test_rank_layout(self):
        cfg = DirectDriveConfig(num_clients=2, num_ccs=3, num_bss=4)
        assert cfg.num_ranks == 2 + 3 + 4 + 3
        assert cfg.role_of(0) == "client0"
        assert cfg.role_of(2) == "ccs0"
        assert cfg.role_of(5) == "bss0"
        assert cfg.role_of(cfg.mds_rank) == "mds"
        assert cfg.role_of(cfg.gs_rank) == "gs"
        assert cfg.role_of(cfg.slb_rank) == "slb"

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            DirectDriveConfig(num_bss=2, replication_factor=5)

    def test_rank_helpers_wrap(self):
        cfg = DirectDriveConfig(num_clients=2, num_ccs=2, num_bss=2, replication_factor=2)
        assert cfg.client_rank(5) == 1
        assert cfg.ccs_rank(3) == 2 + 1
        assert cfg.bss_rank(4) == 2 + 2 + 0


class TestDirectDriveGeneration:
    def _trace(self, n=20, seed=0):
        return FinancialWorkloadGenerator(seed=seed).generate(n)

    def test_schedule_validates(self):
        sched = storage_trace_to_goal(self._trace(), DirectDriveConfig())
        validate_schedule(sched)

    def test_read_flow_structure(self):
        trace = SpcTrace([SpcRecord(0, 1 << 10, 8192, "r", 0.0)])
        cfg = DirectDriveConfig(num_clients=1, num_ccs=1, num_bss=2, replication_factor=1)
        sched = storage_trace_to_goal(trace, cfg)
        validate_schedule(sched)
        # the data transfer of 8192 bytes flows from a BSS to the client
        data_sends = [
            op for r in sched.ranks for op in r.ops if op.is_send and op.size == 8192
        ]
        assert len(data_sends) == 1
        assert data_sends[0].peer == 0

    def test_write_flow_replicates(self):
        trace = SpcTrace([SpcRecord(0, 1 << 10, 8192, "w", 0.0)])
        cfg = DirectDriveConfig(num_clients=1, num_ccs=1, num_bss=4, replication_factor=3)
        sched = storage_trace_to_goal(trace, cfg)
        validate_schedule(sched)
        data_sends = [op for r in sched.ranks for op in r.ops if op.is_send and op.size == 8192]
        # client -> primary plus primary -> 2 replicas
        assert len(data_sends) == 3

    def test_metadata_refresh_every_n_requests(self):
        trace = self._trace(70)
        cfg = DirectDriveConfig(num_clients=1, metadata_every=16)
        sched = storage_trace_to_goal(trace, cfg)
        mds_recvs = sum(1 for op in sched.ranks[cfg.mds_rank].ops if op.is_recv)
        assert mds_recvs == 70 // 16

    def test_session_setup_contacts_slb_and_gs(self):
        sched = storage_trace_to_goal(self._trace(4), DirectDriveConfig(num_clients=2))
        cfg = DirectDriveConfig(num_clients=2)
        assert len(sched.ranks[cfg.slb_rank]) > 0
        assert len(sched.ranks[cfg.gs_rank]) > 0

    def test_arrival_pacing_preserved(self):
        trace = self._trace(50)
        sched = storage_trace_to_goal(trace, DirectDriveConfig(num_clients=1))
        total_gap = sched.ranks[0].total_calc_ns()
        expected = (trace.records[-1].timestamp - trace.records[0].timestamp) * 1e9
        assert total_gap == pytest.approx(expected, rel=0.05)

    def test_timescale_compresses_gaps(self):
        trace = self._trace(50)
        slow = storage_trace_to_goal(trace, DirectDriveConfig(num_clients=1, timescale=1.0))
        fast = storage_trace_to_goal(trace, DirectDriveConfig(num_clients=1, timescale=0.1))
        assert fast.ranks[0].total_calc_ns() < slow.ranks[0].total_calc_ns()

    def test_simulates_on_packet_backend(self):
        sched = storage_trace_to_goal(self._trace(30), DirectDriveConfig())
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=8)
        res = simulate(sched, backend="htsim", config=cfg)
        assert res.ops_completed == sched.num_ops()
        assert res.stats.messages_delivered > 0

    def test_server_threads_spread_work(self):
        sched = storage_trace_to_goal(self._trace(40), DirectDriveConfig(server_threads=4))
        cfg = DirectDriveConfig(server_threads=4)
        streams = set()
        for rank in range(cfg.num_clients, cfg.num_clients + cfg.num_ccs + cfg.num_bss):
            streams.update(sched.ranks[rank].compute_streams())
        assert len(streams) > 1


class TestSyntheticPatterns:
    def test_incast_structure(self):
        sched = incast(8, 1 << 16)
        validate_schedule(sched)
        assert sched.ranks[0].total_bytes_received() == 7 * (1 << 16)
        assert sched.ranks[0].total_bytes_sent() == 0

    def test_incast_custom_senders(self):
        sched = incast(8, 1024, receiver=3, senders=[0, 1], messages_per_sender=2)
        assert sched.ranks[3].total_bytes_received() == 4 * 1024
        validate_schedule(sched)

    def test_incast_rejects_receiver_as_sender(self):
        with pytest.raises(ValueError):
            incast(4, 1024, receiver=0, senders=[0, 1])

    def test_permutation_is_derangement(self):
        sched = permutation(16, 4096, seed=3)
        validate_schedule(sched)
        for rank in sched.ranks:
            sends = [op for op in rank.ops if op.is_send]
            assert len(sends) == 1
            assert sends[0].peer != rank.rank

    def test_permutation_deterministic_by_seed(self):
        a = permutation(8, 1024, seed=1)
        b = permutation(8, 1024, seed=1)
        assert [op.peer for op in a.ranks[0].ops] == [op.peer for op in b.ranks[0].ops]

    def test_all_to_all_counts(self):
        sched = all_to_all(5, 2048)
        assert sched.op_counts()["send"] == 20
        validate_schedule(sched)

    def test_ring_allreduce_microbenchmark(self):
        sched = ring_allreduce_microbenchmark(4, 1 << 18, repetitions=2)
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: all_to_all(4, -1), "per_pair_size"),
            (lambda: ring_allreduce_microbenchmark(4, -1), "buffer_size"),
        ],
    )
    def test_negative_sizes_are_rejected(self, build, named):
        # all_to_all and the ring used to clamp -1 to 1-byte messages
        with pytest.raises(ValueError, match=rf"{named} must be non-negative, got -1"):
            build()

    def test_uniform_random_pairs(self):
        sched = uniform_random_pairs(6, 30, 4096, seed=2)
        validate_schedule(sched)
        assert sched.op_counts()["send"] == 30
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()
