#!/usr/bin/env python
"""Job-placement case study example (paper §6.3 / Fig. 13).

An AI job (scaled-down Llama training) and an HPC job (LULESH) share a 4:1
oversubscribed fat-tree cluster.  The script simulates both jobs under a
packed allocation (nodes assigned sequentially, communication stays local)
and a random allocation (no locality, core links shared), and reports the
per-job slowdown — the quantity behind the paper's "+36% / +2%" annotations.

Run with::

    python examples/multi_job_placement.py
"""
from repro.apps.ai import ParallelismConfig, llama_7b
from repro.apps.hpc import HpcRunConfig
from repro.cluster import ClusterJob, run_cotenant
from repro.core import Atlahs
from repro.network import SimulationConfig


def main() -> None:
    atlahs = Atlahs()

    ai = atlahs.run_ai_training(
        llama_7b().scaled(0.04),
        ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=32),
        iterations=1,
        gpus_per_node=2,
        simulate_schedule=False,
    )
    hpc = atlahs.run_hpc(
        "lulesh", HpcRunConfig(num_ranks=8, iterations=3, cells_per_rank=16_000), simulate_schedule=False
    )
    jobs = [ClusterJob(ai.schedule, name="llama"), ClusterJob(hpc.schedule, name="lulesh")]

    cluster_nodes = 16
    config = SimulationConfig(
        topology="fat_tree", nodes_per_tor=4, oversubscription=4.0, cc_algorithm="mprdma"
    )

    baselines = {}
    print(f"{'allocation':<12} {'job':<8} {'runtime (ms)':>13} {'vs packed':>10}")
    for strategy in ("packed", "random"):
        res = run_cotenant(
            jobs, cluster_nodes, strategy=strategy, config=config, baseline=False,
            **({"seed": 3} if strategy == "random" else {}),
        )
        for out in res.outcomes:
            key, runtime = out.name, out.runtime_ns
            if strategy == "packed":
                baselines[key] = runtime
                delta = ""
            else:
                delta = f"{(runtime / baselines[key] - 1) * 100:+.0f}%"
            print(f"{strategy:<12} {key:<8} {runtime / 1e6:>13.2f} {delta:>10}")


if __name__ == "__main__":
    main()
