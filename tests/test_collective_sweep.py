"""Tests for collective_sweep and the algorithm knob through schedgen / CLI."""
import json

import pytest

from repro.apps.ai import LlmTrainer, ModelConfig, ParallelismConfig
from repro.cli import main
from repro.collectives import contiguous_groups
from repro.goal.validate import validate_schedule
from repro.network.config import SimulationConfig
from repro.schedgen.mpi import mpi_trace_to_goal
from repro.schedgen.nccl import nccl_trace_to_goal
from repro.scheduler import simulate
from repro.sweep import collective_sweep
from repro.tracers.mpi import MpiTracer


def _tiny_model():
    return ModelConfig(name="tiny", num_layers=2, hidden=64, seq_len=8)


def _tiny_report(dp=4):
    par = ParallelismConfig(dp=dp, microbatches=1, global_batch=dp)
    return LlmTrainer(_tiny_model(), par, gpus_per_node=2, iterations=1).trace()


def _allreduce_trace(n=6, size=1 << 16):
    t = MpiTracer(n)
    for rank in range(n):
        t.compute(rank, 100)
        t.record(rank, "MPI_Allreduce", size=size)
    return t.finish()


class TestCollectiveSweep:
    def test_grid_order_and_resolution(self):
        configs = {
            "fat_tree": SimulationConfig(topology="fat_tree"),
            "dragonfly": SimulationConfig(topology="dragonfly"),
        }
        entries = collective_sweep(
            configs, 8, sizes=(4096, 65536), algorithms=("ring", "auto"), backend="lgs"
        )
        assert len(entries) == 2 * 2 * 2
        assert [e.topology for e in entries[:4]] == ["fat_tree"] * 4
        assert [e.size for e in entries[:2]] == [4096, 65536]
        for e in entries:
            assert e.finish_time_ns > 0
            assert e.messages_delivered > 0
            if e.algorithm == "auto":
                assert e.resolved == e.autotuner_pick
            else:
                assert e.resolved == e.algorithm

    def test_parallel_equals_serial(self):
        configs = {"fat_tree": SimulationConfig(topology="fat_tree")}
        kwargs = dict(sizes=(4096,), algorithms=("ring", "hier_rs"), backend="lgs")
        serial = collective_sweep(configs, 8, **kwargs)
        parallel = collective_sweep(configs, 8, parallel=2, **kwargs)
        assert serial == parallel

    def test_unknown_algorithm_fails_before_running(self):
        with pytest.raises(ValueError, match="registered"):
            collective_sweep(
                {"fat_tree": SimulationConfig()}, 8, algorithms=("warp-drive",)
            )

    def test_needs_at_least_two_ranks(self):
        with pytest.raises(ValueError, match="2 ranks"):
            collective_sweep({"fat_tree": SimulationConfig()}, 1)


class TestMpiScheduleGeneratorKnob:
    @pytest.mark.parametrize("algo", ["hier_rs", "hier_leader", "bucket", "auto"])
    def test_algorithm_override_end_to_end(self, algo):
        sched = mpi_trace_to_goal(
            _allreduce_trace(),
            algorithms={"MPI_Allreduce": algo},
            groups=[[0, 1, 2], [3, 4, 5]],
        )
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_topology_derives_groups(self):
        from repro.network.topology import build_topology

        topo = build_topology(SimulationConfig(topology="fat_tree", nodes_per_tor=3), 6)
        sched = mpi_trace_to_goal(
            _allreduce_trace(),
            algorithms={"MPI_Allreduce": "hier_rs"},
            topology=topo,
        )
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="registered"):
            mpi_trace_to_goal(
                _allreduce_trace(), algorithms={"MPI_Allreduce": "warp-drive"}
            )

    def test_default_schedules_unchanged_by_new_parameters(self):
        base = mpi_trace_to_goal(_allreduce_trace())
        again = mpi_trace_to_goal(_allreduce_trace(), groups=[[0, 1, 2], [3, 4, 5]])
        assert base.op_counts() == again.op_counts()
        assert simulate(base, backend="lgs").finish_time_ns == simulate(
            again, backend="lgs"
        ).finish_time_ns

    def test_bcast_algorithm_selectable(self):
        n = 5
        t = MpiTracer(n)
        for rank in range(n):
            t.record(rank, "MPI_Bcast", size=1 << 18, root=0)
        sched = mpi_trace_to_goal(
            t.finish(), algorithms={"MPI_Bcast": "scatter_allgather"}
        )
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()


class TestNcclScheduleGeneratorKnob:
    def test_collective_algorithm_override(self):
        report = _tiny_report()
        sched = nccl_trace_to_goal(
            report, gpus_per_node=1, collective_algorithm="hier_rs"
        )
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_hierarchy_follows_report_node_grouping(self):
        # report traced with gpus_per_node=2: the full pipeline (Stage 3
        # hierarchical decomposition at the node boundary + Stage 4 grouping)
        sched = nccl_trace_to_goal(_tiny_report(), collective_algorithm="hier_rs")
        validate_schedule(sched)
        assert sched.num_ranks == 2  # 4 GPUs grouped 2 per node
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_hierarchy_follows_explicit_gpus_per_node_override(self):
        from repro.schedgen.nccl import NcclScheduleGenerator

        gen = NcclScheduleGenerator(
            _tiny_report(), gpus_per_node=4, collective_algorithm="hier_rs"
        )
        # the hierarchy must match the overridden node width, not the
        # report's physical one (2)
        assert gen._node_groups == [[0, 1, 2, 3]]

    def test_auto_override(self):
        report = _tiny_report()
        sched = nccl_trace_to_goal(report, gpus_per_node=1, collective_algorithm="auto")
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_none_is_bit_identical_to_previous_default(self):
        a = nccl_trace_to_goal(_tiny_report(), gpus_per_node=1)
        b = nccl_trace_to_goal(_tiny_report(), gpus_per_node=1, collective_algorithm=None)
        assert a.op_counts() == b.op_counts()
        assert simulate(a, backend="lgs").finish_time_ns == simulate(
            b, backend="lgs"
        ).finish_time_ns

    def test_override_changes_the_decomposition(self):
        default = nccl_trace_to_goal(_tiny_report(), gpus_per_node=1)
        hier = nccl_trace_to_goal(
            _tiny_report(), gpus_per_node=1, collective_algorithm="hier_rs"
        )
        assert default.op_counts() != hier.op_counts()


class TestCollectivesCli:
    def test_list_and_describe(self, capsys):
        assert main(["collectives"]) == 0
        out = capsys.readouterr().out
        assert "hier_rs" in out and "recursive_halving_doubling" in out
        assert main(["collectives", "--describe", "hier_rs"]) == 0
        out = capsys.readouterr().out
        assert "LogGOPS cost" in out and "hierarchical: yes" in out

    def test_describe_unknown_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["collectives", "--describe", "warp-drive"])

    def test_sweep_reports_cells_and_winners(self, capsys):
        rc = main([
            "collectives", "--sweep", "--backend", "lgs", "--ranks", "8",
            "--sizes", "4096", "--algorithms", "ring,hier_rs",
            "--topologies", "fat_tree,dragonfly",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 4
        assert len(payload["winners"]) == 2
        assert {w["topology"] for w in payload["winners"]} == {"fat_tree", "dragonfly"}

    def test_sweep_rejects_bad_input(self):
        with pytest.raises(SystemExit):
            main(["collectives", "--sweep", "--sizes", "banana"])
        with pytest.raises(SystemExit):
            main(["collectives", "--sweep", "--topologies", "moebius"])
        with pytest.raises(SystemExit):
            main(["collectives", "--sweep", "--algorithms", "warp-drive",
                  "--sizes", "4096", "--ranks", "4"])

    def test_ai_collective_algorithm_flag(self, capsys):
        rc = main([
            "ai", "llama-7b", "--scale", "0.05", "--dp", "4", "--batch", "8",
            "--microbatches", "2", "--collective-algorithm", "hier_rs",
            "--gpus-per-node", "2",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ops_completed"] > 0
