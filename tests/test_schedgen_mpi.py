"""Tests for the MPI trace -> GOAL schedule generator."""
import pytest

from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.goal import validate_schedule
from repro.goal.ops import OpType
from repro.schedgen.mpi import MpiScheduleGenerator, TraceMismatchError, mpi_trace_to_goal
from repro.scheduler import simulate
from repro.tracers.mpi import MpiTracer


def _pingpong_trace():
    t = MpiTracer(2)
    t.compute(0, 1000)
    t.record(0, "MPI_Send", size=4096, peer=1, tag=7)
    t.compute(0, 500)
    t.record(0, "MPI_Recv", size=64, peer=1, tag=8)
    t.record(1, "MPI_Recv", size=4096, peer=0, tag=7)
    t.compute(1, 200)
    t.record(1, "MPI_Send", size=64, peer=0, tag=8)
    return t.finish()


class TestP2PConversion:
    def test_send_recv_converted(self):
        sched = mpi_trace_to_goal(_pingpong_trace())
        validate_schedule(sched)
        counts = sched.op_counts()
        assert counts["send"] == 2 and counts["recv"] == 2

    def test_compute_gaps_become_calc(self):
        sched = mpi_trace_to_goal(_pingpong_trace())
        assert sched.ranks[0].total_calc_ns() >= 1500

    def test_compute_scale_applied(self):
        full = mpi_trace_to_goal(_pingpong_trace(), compute_scale=1.0)
        half = mpi_trace_to_goal(_pingpong_trace(), compute_scale=0.5)
        assert half.ranks[0].total_calc_ns() == pytest.approx(full.ranks[0].total_calc_ns() * 0.5, rel=0.01)

    def test_simulates_to_completion(self):
        sched = mpi_trace_to_goal(_pingpong_trace())
        res = simulate(sched, backend="lgs")
        assert res.ops_completed == sched.num_ops()

    def test_sendrecv_creates_parallel_ops(self):
        t = MpiTracer(2)
        for r in (0, 1):
            t.record(r, "MPI_Sendrecv", size=128, peer=1 - r, recv_peer=1 - r, recv_size=128, tag=5)
        sched = mpi_trace_to_goal(t.finish())
        validate_schedule(sched)
        res = simulate(sched, backend="lgs")
        assert res.ops_completed == sched.num_ops()


class TestCollectiveConversion:
    def test_allreduce_decomposed_to_p2p(self):
        t = MpiTracer(4)
        for r in range(4):
            t.compute(r, 100)
            t.record(r, "MPI_Allreduce", size=1 << 20)
        sched = mpi_trace_to_goal(t.finish())
        validate_schedule(sched)
        counts = sched.op_counts()
        assert counts["send"] == 4 * 2 * 3  # ring allreduce over 4 ranks

    def test_small_allreduce_uses_recursive_doubling(self):
        t = MpiTracer(4)
        for r in range(4):
            t.record(r, "MPI_Allreduce", size=8)
        sched = mpi_trace_to_goal(t.finish())
        counts = sched.op_counts()
        assert counts["send"] == 4 * 2  # log2(4) rounds of full-buffer exchange

    def test_multiple_collectives_in_order(self):
        t = MpiTracer(3)
        for r in range(3):
            t.record(r, "MPI_Bcast", size=4096, root=0)
            t.compute(r, 50)
            t.record(r, "MPI_Allreduce", size=64)
            t.record(r, "MPI_Barrier")
        sched = mpi_trace_to_goal(t.finish())
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_sub_communicator_collective(self):
        t = MpiTracer(4)
        t.define_communicator(1, [0, 2])
        for r in (0, 2):
            t.record(r, "MPI_Allreduce", size=256, comm=1)
        for r in (1, 3):
            t.compute(r, 10)
            t.record(r, "MPI_Barrier", comm=0)
        for r in (0, 2):
            t.record(r, "MPI_Barrier", comm=0)
        sched = mpi_trace_to_goal(t.finish())
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_mismatched_collectives_raise(self):
        t = MpiTracer(2)
        t.record(0, "MPI_Allreduce", size=64)
        # rank 1 never calls the collective
        t.record(1, "MPI_Send", size=8, peer=0, tag=1)
        t.record(0, "MPI_Recv", size=8, peer=1, tag=1)
        # rank 0's Recv comes after its Allreduce, which can never complete
        with pytest.raises(TraceMismatchError):
            MpiScheduleGenerator(t.finish()).generate()

    def test_members_must_agree_on_the_size(self):
        t = MpiTracer(2)
        t.record(0, "MPI_Allreduce", size=64)
        t.record(1, "MPI_Allreduce", size=1 << 20)
        with pytest.raises(
            TraceMismatchError,
            match=r"MPI_Allreduce \(comm 0, seq 0\): members disagree: "
            r"size=64 on ranks \[0\]; size=1048576 on ranks \[1\]",
        ):
            mpi_trace_to_goal(t.finish())

    def test_members_must_agree_on_the_root(self):
        t = MpiTracer(2)
        for r in range(2):
            t.record(r, "MPI_Bcast", size=64, root=r)
        with pytest.raises(TraceMismatchError, match=r"size=64 root=0 on ranks \[0\]; size=64 root=1 on ranks \[1\]"):
            mpi_trace_to_goal(t.finish())

    def test_root_must_be_a_member(self):
        t = MpiTracer(4)
        t.define_communicator(1, [0, 1])
        for r in (0, 1):
            t.record(r, "MPI_Bcast", size=64, root=3, comm=1)
        with pytest.raises(
            TraceMismatchError,
            match=r"MPI_Bcast \(comm 1, seq 0\): root 3 is not a member of communicator \[0, 1\]",
        ):
            mpi_trace_to_goal(t.finish())

    def test_unrooted_call_ignores_the_root(self):
        # an allreduce on a communicator without rank 0 keeps the default root 0
        t = MpiTracer(4)
        t.define_communicator(1, [2, 3])
        for r in (2, 3):
            t.record(r, "MPI_Allreduce", size=64, comm=1)
        validate_schedule(mpi_trace_to_goal(t.finish()))

    def test_every_collective_kind_supported(self):
        calls = [
            ("MPI_Allreduce", {}),
            ("MPI_Reduce", {"root": 1}),
            ("MPI_Bcast", {"root": 0}),
            ("MPI_Barrier", {}),
            ("MPI_Allgather", {}),
            ("MPI_Alltoall", {}),
            ("MPI_Gather", {"root": 0}),
            ("MPI_Scatter", {"root": 0}),
            ("MPI_Reduce_scatter", {}),
        ]
        t = MpiTracer(4)
        for call, kw in calls:
            for r in range(4):
                t.record(r, call, size=2048, **kw)
        sched = mpi_trace_to_goal(t.finish())
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_algorithm_override(self):
        t = MpiTracer(4)
        for r in range(4):
            t.record(r, "MPI_Allreduce", size=1 << 20)
        sched = mpi_trace_to_goal(t.finish(), algorithms={"MPI_Allreduce": "reduce_bcast"})
        counts = sched.op_counts()
        assert counts["send"] == 2 * 3  # reduce tree + bcast tree over 4 ranks


class TestAlgorithmOverrides:
    """Every ``algorithms`` entry is checked when the generator is built."""

    def test_unknown_call_is_rejected(self):
        with pytest.raises(ValueError, match="MPI_Allredcue.*known: MPI_Allreduce"):
            MpiScheduleGenerator(_pingpong_trace(), algorithms={"MPI_Allredcue": "ring"})

    @pytest.mark.parametrize("call", ["MPI_Reduce", "MPI_Gather", "MPI_Scatter"])
    def test_single_decomposition_calls_accept_only_their_name(self, call):
        with pytest.raises(ValueError, match=f"{call} has one decomposition.*'nonsense'"):
            MpiScheduleGenerator(_pingpong_trace(), algorithms={call: "nonsense"})
        with pytest.raises(ValueError, match="one decomposition"):
            MpiScheduleGenerator(_pingpong_trace(), algorithms={call: "auto"})

    def test_single_decomposition_calls_accept_their_name(self):
        t = MpiTracer(4)
        for r in range(4):
            t.record(r, "MPI_Reduce", size=2048, root=1)
            t.record(r, "MPI_Gather", size=2048, root=0)
            t.record(r, "MPI_Scatter", size=2048, root=0)
        trace = t.finish()
        named = {"MPI_Reduce": "binomial", "MPI_Gather": "linear", "MPI_Scatter": "linear"}
        assert mpi_trace_to_goal(trace, algorithms=named).op_counts() == (
            mpi_trace_to_goal(trace).op_counts()
        )

    def test_bad_name_fails_before_any_collective_is_reached(self):
        # the trace has no barrier at all: the name is still checked
        with pytest.raises(ValueError, match="unknown barrier algorithm 'tree'.*dissemination"):
            MpiScheduleGenerator(_pingpong_trace(), algorithms={"MPI_Barrier": "tree"})

    def test_name_of_another_kind_is_rejected(self):
        # "binomial" is a bcast algorithm, not an allreduce one
        with pytest.raises(ValueError, match="unknown allreduce algorithm 'binomial'"):
            MpiScheduleGenerator(_pingpong_trace(), algorithms={"MPI_Allreduce": "binomial"})

    def test_registered_names_and_auto_are_accepted(self):
        algorithms = {
            "MPI_Allreduce": "recursive_halving_doubling",
            "MPI_Bcast": "scatter_allgather",
            "MPI_Barrier": "auto",
            "MPI_Allgather": "bruck",
            "MPI_Alltoall": "auto",
            "MPI_Reduce_scatter": "ring",
        }
        gen = MpiScheduleGenerator(_pingpong_trace(), algorithms=algorithms)
        assert gen.algorithms["MPI_Allgather"] == "bruck"
        assert gen.algorithms["MPI_Gather"] == "linear"


class TestEndToEndApplications:
    @pytest.mark.parametrize("name", ["cloverleaf", "hpcg", "lammps"])
    def test_hpc_apps_convert_and_simulate(self, name):
        cfg = HpcRunConfig(num_ranks=8, iterations=2, cells_per_rank=4000)
        trace = HPC_APPLICATIONS[name].trace(cfg)
        sched = mpi_trace_to_goal(trace)
        validate_schedule(sched)
        res = simulate(sched, backend="lgs")
        assert res.ops_completed == sched.num_ops()
        assert res.finish_time_ns > 0
