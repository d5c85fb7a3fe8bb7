"""Tests for the Atlahs facade and the command-line interface."""
import json

import pytest

from repro.apps.ai import ParallelismConfig, llama_7b
from repro.apps.hpc import HpcRunConfig
from repro.cli import build_parser, main
from repro.cluster import ClusterJob, run_cotenant
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

    def test_run_cotenant(self):
        a = Atlahs()
        j1 = a.run_hpc("lammps", HpcRunConfig(num_ranks=4, iterations=1, cells_per_rank=2000), simulate_schedule=False)
        j2 = a.run_hpc("icon", HpcRunConfig(num_ranks=4, iterations=1, cells_per_rank=2000), simulate_schedule=False)
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4)
        jobs = [ClusterJob(j1.schedule), ClusterJob(j2.schedule)]
        out = run_cotenant(jobs, cluster_nodes=8, strategy="packed", config=cfg, baseline=False)
        assert out.plan.schedule.num_ranks == 8
        assert out.result.ops_completed == out.plan.schedule.num_ops()

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
        assert payload["messages_delivered"] == 3

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
        assert payload["messages_delivered"] == 1

    def test_ai_command(self, capsys):
        rc = main([
            "ai", "llama-7b", "--scale", "0.03", "--dp", "2", "--microbatches", "1",
            "--batch", "4", "--gpus-per-node", "2",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gpus"] == 2

    def test_network_arg_defaults_are_the_config_defaults(self):
        """The one flag table: each entry names a SimulationConfig field, and
        every network flag left unset yields that field's default."""
        import argparse
        import dataclasses

        from repro.cli import _NETWORK_FLAGS, _add_network_args, _config_from_args

        parser = argparse.ArgumentParser()
        _add_network_args(parser)
        args = parser.parse_args([])
        assert _config_from_args(args) == SimulationConfig()
        defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
        dests = {"backend"}  # the one network flag that is not a config field
        for field, flag, help_text in _NETWORK_FLAGS:
            assert field in defaults, f"{flag} names no SimulationConfig field {field!r}"
            dest = flag[2:].replace("-", "_")
            assert getattr(args, dest) == defaults[field], f"{flag} drifted"
            assert help_text, f"{flag} has no help"
            dests.add(dest)
        assert set(vars(args)) == dests


# Every report-printing subcommand on a tiny input, with the key paths of
# its JSON report as captured before the CLI's flags, list parsing and
# printing were each reduced to one place ("a[].b": key b of a's items); a
# run's block is SimulationResult.digest(), under its own key names.
_DIGEST_KEYS = (
    "finish_time_ns ops_completed messages_delivered bytes_delivered packets_sent "
    "packets_delivered packets_dropped packets_trimmed packets_ecn_marked retransmissions "
    "max_queue_bytes packets_rerouted packets_lost_to_faults packets_blackholed "
    "time_to_recover_ns groups convergence_records rank_finish_times_ns links message_records"
)
_RESULT_KEYS = f"workload backend {_DIGEST_KEYS} wall_clock_s"
_REPORTS = {
    "simulate": (["simulate", "{goal}"], _RESULT_KEYS),
    "hpc": (
        ["hpc", "lammps", "--ranks", "4", "--iterations", "1", "--cells-per-rank", "2000"],
        _RESULT_KEYS + " trace_bytes goal_bytes",
    ),
    "ai": (
        ["ai", "llama-7b", "--scale", "0.03", "--dp", "2", "--microbatches", "1",
         "--batch", "4", "--gpus-per-node", "2"],
        _RESULT_KEYS + " trace_bytes goal_bytes gpus",
    ),
    "storage": (
        ["storage", "--operations", "20", "--nodes-per-tor", "8"],
        _RESULT_KEYS + " mct_mean_us mct_p99_us mct_max_us",
    ),
    "synthetic": (
        ["synthetic", "incast", "--ranks", "4", "--message-size", "65536"], _RESULT_KEYS
    ),
    "cotenant": (
        ["cotenant", "incast:4:1024", "alltoall:4:1024", "--backend", "htsim",
         "--nodes-per-tor", "4", "--placement", "packed,fragmented"],
        "workload backend cluster_nodes strategies strategies.packed "
        "strategies.packed.finish_time_ms strategies.packed.wall_clock_s "
        "strategies.packed.contended_links strategies.packed.top_contended_links "
        "strategies.packed.jobs strategies.packed.jobs[].job "
        "strategies.packed.jobs[].arrival_ms strategies.packed.jobs[].runtime_ms "
        "strategies.packed.jobs[].isolated_runtime_ms strategies.packed.jobs[].slowdown "
        "strategies.packed.jobs[].messages strategies.packed.jobs[].bytes "
        "strategies.fragmented strategies.fragmented.finish_time_ms "
        "strategies.fragmented.wall_clock_s strategies.fragmented.contended_links "
        "strategies.fragmented.top_contended_links "
        "strategies.fragmented.top_contended_links[].link "
        "strategies.fragmented.top_contended_links[].per_job_bytes "
        "strategies.fragmented.top_contended_links[].per_job_bytes.incast:4:1024 "
        "strategies.fragmented.top_contended_links[].per_job_bytes.alltoall:4:1024 "
        "strategies.fragmented.jobs strategies.fragmented.jobs[].job "
        "strategies.fragmented.jobs[].arrival_ms strategies.fragmented.jobs[].runtime_ms "
        "strategies.fragmented.jobs[].isolated_runtime_ms "
        "strategies.fragmented.jobs[].slowdown strategies.fragmented.jobs[].messages "
        "strategies.fragmented.jobs[].bytes",
    ),
    "faults-scenario": (
        ["faults", "alltoall:8:4096", "--backend", "htsim", "--nodes-per-tor", "4",
         "--fail-links", "tor0->core0", "--link-down", "core0->tor0@3000"],
        "workload backend control_plane scenario scenario.failed_links scenario.events "
        "scenario.events[].time_ns scenario.events[].kind scenario.events[].target "
        "healthy_time_ms faulted_time_ms slowdown " + _DIGEST_KEYS,
    ),
    "faults-sweep": (
        ["faults", "incast:4:4096", "--rates", "0,0.25", "--nodes-per-tor", "2"],
        "workload backend topology failure_seed fail_time_ns cells cells[].routing "
        "cells[].control_plane cells[].failure_rate cells[].failed_links "
        "cells[].finish_time_ms cells[].slowdown cells[].packets_rerouted "
        "cells[].packets_lost_to_faults cells[].packets_blackholed "
        "cells[].time_to_recover_ns cells[].packet_drops",
    ),
    "inference": (
        ["inference", "--requests", "12", "--rates", "200,600", "--tenants",
         "chat:3:64:8,summarize:1:128:4", "--nodes-per-tor", "2"],
        "workload backend topology process requests tenants tenants[].name "
        "tenants[].weight tenants[].prompt_tokens tenants[].decode_tokens "
        "nominal_capacity_rps slo_ttft_ms cells cells[].rate_rps cells[].offered_rps "
        "cells[].throughput_rps cells[].goodput_rps cells[].good_requests "
        "cells[].ttft_p50_ms cells[].ttft_p99_ms cells[].ttft_p999_ms cells[].tpot_p50_ms "
        "cells[].mean_batch cells[].finish_time_ms",
    ),
    "collectives-sweep": (
        ["collectives", "--sweep", "--ranks", "4", "--sizes", "4096",
         "--algorithms", "ring,auto", "--topologies", "fat_tree"],
        "collective num_ranks backend cells cells[].topology cells[].algorithm "
        "cells[].resolved cells[].size cells[].finish_time_us cells[].autotuner_pick "
        "cells[].messages winners winners[].topology winners[].size winners[].algorithm "
        "winners[].finish_time_us winners[].autotuner_pick",
    ),
}


def _key_paths(value, path: str = "") -> list:
    """Every key path of a JSON value in document order (a list: its first item)."""
    if isinstance(value, dict):
        paths = []
        for key, item in value.items():
            paths.append(path + key)
            paths.extend(_key_paths(item, path + key + "."))
        return paths
    if isinstance(value, list) and value:
        return _key_paths(value[0], path[:-1] + "[].")
    return []


@pytest.mark.parametrize("argv, keys", list(_REPORTS.values()), ids=list(_REPORTS))
def test_report_keys_are_unchanged(argv, keys, tmp_path, capsys):
    from repro.goal import GoalBuilder, write_goal_file

    b = GoalBuilder(2, name="pingpong")
    b.rank(0).send(1024, dst=1, tag=1)
    b.rank(1).recv(1024, src=0, tag=1)
    goal = str(tmp_path / "pingpong.goal")
    write_goal_file(b.build(), goal)
    assert main([goal if arg == "{goal}" else arg for arg in argv]) == 0
    assert _key_paths(json.loads(capsys.readouterr().out)) == keys.split()
