"""Tests for the NCCL trace -> GOAL pipeline (stages 2-4) and grouping."""
import pytest

from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b, mistral_8x7b
from repro.collectives.nccl import NcclConfig
from repro.goal import GoalBuilder, encode_goal, validate_schedule
from repro.goal.ops import OpType
from repro.schedgen.grouping import group_ranks_into_nodes
from repro.schedgen.nccl import NcclScheduleGenerator, nccl_trace_to_goal
from repro.schedgen.walk import TraceMismatchError
from repro.scheduler import simulate
from repro.tracers.nccl import NcclTracer


def _small_report(dp=4, pp=1, ep=1, model=None):
    model = model or llama_7b().scaled(0.05)
    par = ParallelismConfig(tp=1, pp=pp, dp=dp, ep=ep, microbatches=2, global_batch=16)
    return LlmTrainer(model, par, gpus_per_node=2, iterations=1).trace()


class TestStage2And3:
    def test_gpu_schedule_one_rank_per_gpu(self):
        report = _small_report()
        gen = NcclScheduleGenerator(report, gpus_per_node=1)
        sched = gen.generate()
        assert sched.num_ranks == report.num_gpus
        validate_schedule(sched)

    def test_compute_gaps_become_calc(self):
        t = NcclTracer(2)
        t.compute(0, 0, 5000)
        t.nccl(0, 0, "AllReduce", 4096)
        t.compute(1, 0, 100)
        t.nccl(1, 0, "AllReduce", 4096)
        sched = NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate()
        assert sched.ranks[0].total_calc_ns() >= 5000

    def test_compute_scale(self):
        report = _small_report(dp=2)
        full = NcclScheduleGenerator(report, gpus_per_node=1).generate()
        half = NcclScheduleGenerator(report, compute_scale=0.5, gpus_per_node=1).generate()
        assert half.total_calc_ns() < full.total_calc_ns()

    def test_p2p_send_recv_correlated(self):
        t = NcclTracer(2)
        t.nccl(0, 0, "Send", 1 << 16, peer=1)
        t.nccl(0, 0, "Send", 1 << 16, peer=1)
        t.nccl(1, 0, "Recv", 1 << 16, peer=0)
        t.nccl(1, 0, "Recv", 1 << 16, peer=0)
        sched = NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_mismatched_collectives_raise(self):
        t = NcclTracer(2)
        t.nccl(0, 0, "AllReduce", 4096, comm=0)
        # GPU 1 never issues the collective
        with pytest.raises(TraceMismatchError):
            NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate()

    def test_gpus_must_agree_on_the_size(self):
        t = NcclTracer(2)
        t.nccl(0, 0, "AllReduce", 4096)
        t.nccl(1, 0, "AllReduce", 8192)
        with pytest.raises(
            TraceMismatchError,
            match=r"AllReduce \(comm 0, seq 0\): members disagree: "
            r"size=4096 on ranks \[0\]; size=8192 on ranks \[1\]",
        ):
            NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate()

    def test_streams_of_one_gpu_resume_in_stream_order(self):
        # both streams of each GPU leave a collective in the same round; what
        # they emit next shares the GPU's vertex ids, in sorted stream order
        t = NcclTracer(2)
        t.define_communicator(1, [0, 1])
        for gpu in range(2):
            for stream, comm, work in ((7, 1, 222), (3, 0, 111)):
                t.nccl(gpu, stream, "AllReduce", 4096, comm=comm)
                t.compute(gpu, stream, work)
        rank = NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate().ranks[0]
        assert list(rank.size[-2:]) == [111, 222]
        assert list(rank.cpu[-2:]) == [0, 1]

    def test_nccl_config_changes_schedule_shape(self):
        report = _small_report(dp=2)
        a = nccl_trace_to_goal(report, nccl_config=NcclConfig(nchannels=1), gpus_per_node=1)
        b = nccl_trace_to_goal(report, nccl_config=NcclConfig(nchannels=4), gpus_per_node=1)
        assert b.num_ops() != a.num_ops()

    def test_simulates_on_both_backends(self):
        from repro.network import SimulationConfig

        sched = nccl_trace_to_goal(_small_report(dp=4), gpus_per_node=1)
        lgs = simulate(sched, backend="lgs")
        pkt = simulate(
            sched, backend="htsim", config=SimulationConfig(topology="fat_tree", nodes_per_tor=4)
        )
        assert lgs.ops_completed == pkt.ops_completed == sched.num_ops()

    def test_send_recv_kernels_are_one_op_each(self):
        t = NcclTracer(2)
        t.nccl(0, 0, "Send", 4 << 20, peer=1)
        t.nccl(1, 0, "Recv", 4 << 20, peer=0)
        sched = NcclScheduleGenerator(t.finish(), gpus_per_node=1).generate()
        assert sched.op_counts()["send"] == sched.op_counts()["recv"] == 1


class TestCollectiveAlgorithmOverride:
    def test_unknown_name_is_rejected_with_the_registered_names(self):
        with pytest.raises(ValueError, match="'hier-rs'; registered: ring, .*hier_rs.*'auto'"):
            nccl_trace_to_goal(_small_report(dp=2), collective_algorithm="hier-rs")

    def test_name_of_a_kind_no_kernel_is_is_rejected(self):
        # the barrier's algorithm: registered, but no NCCL kernel is a barrier
        with pytest.raises(ValueError, match="'dissemination'; registered: ring, "):
            nccl_trace_to_goal(_small_report(dp=2), collective_algorithm="dissemination")

    def test_name_registered_for_other_kinds_falls_back_per_kind(self):
        # "bruck" is an allgather algorithm: the trace's allreduces keep the
        # NCCL decomposition, exactly as without an override
        report = _small_report(dp=2)
        plain = nccl_trace_to_goal(report, gpus_per_node=1)
        bruck = nccl_trace_to_goal(report, gpus_per_node=1, collective_algorithm="bruck")
        assert encode_goal(bruck) == encode_goal(plain)

    def test_registered_name_replaces_the_decomposition(self):
        report = _small_report(dp=4)
        plain = nccl_trace_to_goal(report, gpus_per_node=1)
        rhd = nccl_trace_to_goal(
            report, gpus_per_node=1, collective_algorithm="recursive_halving_doubling"
        )
        assert encode_goal(rhd) != encode_goal(plain)
        validate_schedule(rhd)


class TestStage4Grouping:
    def test_grouping_reduces_rank_count(self):
        report = _small_report(dp=4)
        sched = nccl_trace_to_goal(report, gpus_per_node=2)
        assert sched.num_ranks == 2
        validate_schedule(sched)

    def test_intra_node_comm_replaced_by_calc(self):
        b = GoalBuilder(4)
        b.rank(0).send(1 << 20, dst=1, tag=1)
        b.rank(1).recv(1 << 20, src=0, tag=1)
        b.rank(2).send(1 << 20, dst=3, tag=2)
        b.rank(3).recv(1 << 20, src=2, tag=2)
        grouped = group_ranks_into_nodes(b.build(), ranks_per_node=2)
        assert grouped.num_ranks == 2
        counts = grouped.op_counts()
        assert counts["send"] == 0 and counts["recv"] == 0
        assert counts["calc"] == 4
        # the send side carries the NVLink transfer cost
        assert grouped.total_calc_ns() > 0

    def test_intra_node_dependency_preserved(self):
        b = GoalBuilder(2)
        c = b.rank(0).calc(10_000)
        b.rank(0).send(1024, dst=1, tag=1, requires=[c])
        r = b.rank(1).recv(1024, src=0, tag=1)
        b.rank(1).calc(500, requires=[r])
        grouped = group_ranks_into_nodes(b.build(), ranks_per_node=2)
        res = simulate(grouped, backend="lgs")
        # the consumer calc must still wait for the producer's 10us compute
        assert res.finish_time_ns >= 10_000

    def test_inter_node_comm_remapped(self):
        b = GoalBuilder(4)
        b.rank(0).send(4096, dst=2, tag=1)
        b.rank(2).recv(4096, src=0, tag=1)
        grouped = group_ranks_into_nodes(b.build(), ranks_per_node=2)
        sends = [op for r in grouped.ranks for op in r.ops if op.is_send]
        assert len(sends) == 1 and sends[0].peer == 1
        validate_schedule(grouped)

    def test_streams_offset_per_local_rank(self):
        b = GoalBuilder(2)
        b.rank(0).calc(10, cpu=0)
        b.rank(1).calc(10, cpu=0)
        grouped = group_ranks_into_nodes(b.build(), ranks_per_node=2, stream_stride=16)
        assert sorted(grouped.ranks[0].compute_streams()) == [0, 16]

    def test_stream_stride_violation_rejected(self):
        b = GoalBuilder(2)
        b.rank(0).calc(10, cpu=20)
        b.rank(1).calc(10)
        with pytest.raises(ValueError):
            group_ranks_into_nodes(b.build(), ranks_per_node=2, stream_stride=16)

    def test_explicit_node_map(self):
        b = GoalBuilder(4)
        for r in range(4):
            b.rank(r).calc(r + 1)
        grouped = group_ranks_into_nodes(b.build(), node_of=[0, 1, 0, 1])
        assert grouped.num_ranks == 2
        assert len(grouped.ranks[0]) == 2

    def test_requires_exactly_one_grouping_spec(self):
        b = GoalBuilder(2)
        b.rank(0).calc(1)
        with pytest.raises(ValueError):
            group_ranks_into_nodes(b.build())
        with pytest.raises(ValueError):
            group_ranks_into_nodes(b.build(), ranks_per_node=2, node_of=[0, 0])

    def test_what_if_regrouping(self):
        # the paper's Stage-4 example: regroup an 8-GPU/2-node trace as 4 nodes
        report = _small_report(dp=8)
        two_nodes = nccl_trace_to_goal(report, gpus_per_node=4)
        four_nodes = nccl_trace_to_goal(report, gpus_per_node=2)
        assert two_nodes.num_ranks == 2
        assert four_nodes.num_ranks == 4
        for sched in (two_nodes, four_nodes):
            validate_schedule(sched)
            assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_grouped_moe_workload_completes(self):
        report = _small_report(dp=4, pp=2, ep=2, model=mistral_8x7b().scaled(0.05))
        sched = nccl_trace_to_goal(report, gpus_per_node=2)
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()
