"""Fig. 13: effect of the job-placement strategy on co-located applications.

An AI training job (Llama-like) and an HPC job (LULESH) share a 4:1
oversubscribed fat tree.  The harness simulates both jobs under a packed and
a random allocation with the packet backend and prints each job's runtime and
its slowdown relative to the packed allocation (the paper reports +36% for
Llama and +2% for LULESH).
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, run_once
from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.cluster import ClusterJob, run_cotenant
from repro.network import SimulationConfig
from repro.schedgen import mpi_trace_to_goal, nccl_trace_to_goal

CLUSTER_NODES = 16


def _jobs():
    model = llama_7b().scaled(0.04)
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=32)
    report = LlmTrainer(model, par, gpus_per_node=1, iterations=1).trace()
    llama_sched = nccl_trace_to_goal(report, gpus_per_node=1)

    trace = HPC_APPLICATIONS["lulesh"].trace(HpcRunConfig(num_ranks=8, iterations=3, cells_per_rank=16_000))
    lulesh_sched = mpi_trace_to_goal(trace)
    return [ClusterJob(llama_sched, name="Llama"), ClusterJob(lulesh_sched, name="LULESH")]


def _config():
    return SimulationConfig(
        topology="fat_tree", nodes_per_tor=4, oversubscription=4.0, cc_algorithm="mprdma", seed=11
    )


def test_fig13_job_placement(benchmark):
    jobs = _jobs()

    def run_all():
        runtimes = {}
        for strategy, kwargs in (("packed", {}), ("random", {"seed": 3})):
            res = run_cotenant(
                jobs, CLUSTER_NODES, strategy=strategy, backend="htsim",
                config=_config(), baseline=False, **kwargs,
            )
            runtimes[strategy] = [out.runtime_ns for out in res.outcomes]
        return runtimes

    runtimes = run_once(benchmark, run_all)
    rows = []
    for i, job in enumerate(jobs):
        packed = runtimes["packed"][i]
        random_ = runtimes["random"][i]
        rows.append(
            (
                job.label,
                f"{packed / 1e6:.2f} ms",
                f"{random_ / 1e6:.2f} ms",
                f"{(random_ / packed - 1) * 100:+.0f}%",
            )
        )
    print_table(
        "Fig. 13  packed vs random allocation (4:1 oversubscribed fat tree)",
        ["job", "packed", "random", "slowdown"],
        rows,
    )

    llama_slowdown = runtimes["random"][0] / runtimes["packed"][0] - 1
    lulesh_slowdown = runtimes["random"][1] / runtimes["packed"][1] - 1
    # shape: the communication-heavy AI job suffers substantially more from
    # losing locality than the compute-dominated HPC job
    assert llama_slowdown > 0.05
    assert llama_slowdown > lulesh_slowdown
    assert lulesh_slowdown < 0.15
