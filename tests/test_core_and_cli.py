"""Tests for the Atlahs facade and the command-line interface."""
import json

import pytest

from repro.apps.ai import ParallelismConfig, llama_7b
from repro.apps.hpc import HpcRunConfig
from repro.cli import build_parser, main
from repro.core import Atlahs
from repro.network import SimulationConfig
from repro.schedgen.storage import DirectDriveConfig
from repro.tracers.storage import FinancialWorkloadGenerator


class TestAtlahsFacade:
    def test_run_hpc_pipeline(self):
        out = Atlahs().run_hpc("lammps", HpcRunConfig(num_ranks=4, iterations=2, cells_per_rank=4000))
        assert out.result is not None
        assert out.result.ops_completed == out.schedule.num_ops()
        assert out.trace_bytes > 0 and out.goal_bytes > 0

    def test_unknown_hpc_app(self):
        with pytest.raises(ValueError):
            Atlahs().run_hpc("gromacs", HpcRunConfig(num_ranks=4))

    def test_run_ai_pipeline(self):
        out = Atlahs().run_ai_training(
            llama_7b().scaled(0.04),
            ParallelismConfig(dp=4, microbatches=2, global_batch=16),
            iterations=1,
            gpus_per_node=2,
        )
        assert out.schedule.num_ranks == 2
        assert out.result.finish_time_ns > 0

    def test_run_storage_pipeline(self):
        trace = FinancialWorkloadGenerator(seed=1).generate(30)
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=8)
        out = Atlahs(cfg).run_storage(trace, DirectDriveConfig())
        assert out.result.stats.messages_delivered > 0

    def test_run_multi_job(self):
        a = Atlahs()
        j1 = a.run_hpc("lammps", HpcRunConfig(num_ranks=4, iterations=1, cells_per_rank=2000), simulate_schedule=False)
        j2 = a.run_hpc("icon", HpcRunConfig(num_ranks=4, iterations=1, cells_per_rank=2000), simulate_schedule=False)
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4)
        out = a.run_multi_job([j1.schedule, j2.schedule], cluster_nodes=8, strategy="packed", config=cfg)
        assert out.schedule.num_ranks == 8
        assert out.result.ops_completed == out.schedule.num_ops()

    def test_simulate_schedule_flag(self):
        out = Atlahs().run_hpc(
            "lammps", HpcRunConfig(num_ranks=4, iterations=1, cells_per_rank=2000), simulate_schedule=False
        )
        assert out.result is None

    def test_compare_with_astrasim_dp(self):
        a = Atlahs()
        out = a.run_ai_training(
            llama_7b().scaled(0.04),
            ParallelismConfig(dp=4, microbatches=2, global_batch=16),
            iterations=1,
            simulate_schedule=False,
        )
        cmp = a.compare_with_astrasim(out.extras["report"])
        assert cmp["chakra_bytes"] > 0
        assert "finish_time_ns" in cmp

    def test_compare_with_astrasim_pp_reports_failure(self):
        a = Atlahs()
        out = a.run_ai_training(
            llama_7b().scaled(0.04),
            ParallelismConfig(pp=2, dp=2, microbatches=2, global_batch=16),
            iterations=1,
            simulate_schedule=False,
        )
        cmp = a.compare_with_astrasim(out.extras["report"])
        assert "error" in cmp


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        for cmd in ("simulate", "hpc", "ai", "storage", "synthetic"):
            assert cmd in parser.format_help()

    def test_synthetic_command(self, capsys):
        rc = main(["synthetic", "incast", "--ranks", "4", "--message-size", "65536"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 3

    def test_hpc_command(self, capsys):
        rc = main(["hpc", "lammps", "--ranks", "4", "--iterations", "1", "--cells-per-rank", "2000"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ops_completed"] > 0

    def test_simulate_command_roundtrip(self, tmp_path, capsys):
        from repro.goal import GoalBuilder, write_goal_file

        b = GoalBuilder(2, name="cli")
        b.rank(0).send(1024, dst=1, tag=1)
        b.rank(1).recv(1024, src=0, tag=1)
        path = str(tmp_path / "sched.goal")
        write_goal_file(b.build(), path)
        rc = main(["simulate", path, "--backend", "lgs"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 1

    def test_ai_command(self, capsys):
        rc = main([
            "ai", "llama-7b", "--scale", "0.03", "--dp", "2", "--microbatches", "1",
            "--batch", "4", "--gpus-per-node", "2",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gpus"] == 2

    def test_network_arg_defaults_are_the_config_defaults(self):
        """Every network flag left unset must yield SimulationConfig's default."""
        import argparse
        import dataclasses

        from repro.cli import _add_network_args, _config_from_args

        parser = argparse.ArgumentParser()
        _add_network_args(parser)
        args = parser.parse_args([])
        assert _config_from_args(args) == SimulationConfig()
        # and each exposed flag individually names a config field's default
        defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
        for dest, value in vars(args).items():
            field = {"cc": "cc_algorithm"}.get(dest, dest)
            if field == "backend":  # not a SimulationConfig field
                continue
            assert value == defaults[field], f"--{dest.replace('_', '-')} drifted"
