#!/usr/bin/env python
"""Co-tenancy interference study: job arrivals, placement, attribution.

Extends the Fig. 13 placement case study (see
``examples/multi_job_placement.py``) with the multi-job co-tenancy engine:
an AI job (scaled-down Llama training) and an HPC job (LULESH) share a 4:1
oversubscribed fat tree, the HPC job arriving 50 us after the AI job.  The
engine simulates both jobs as *one* fabric-shared program and attributes the
results back per job — runtime, slowdown versus an isolated run under the
same placement, and the per-link contention breakdown — across a
packed / fragmented / random placement grid.

Run with::

    python examples/cotenancy_interference.py
"""
from repro.apps.ai import ParallelismConfig, llama_7b
from repro.apps.hpc import HpcRunConfig
from repro.cluster import ClusterJob, run_cotenant
from repro.core import Atlahs
from repro.network import SimulationConfig
from repro.sweep import interference_sweep


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
        "lulesh",
        HpcRunConfig(num_ranks=8, iterations=3, cells_per_rank=16_000),
        simulate_schedule=False,
    )
    jobs = [
        ClusterJob(ai.schedule, name="llama"),
        ClusterJob(hpc.schedule, arrival_ns=50_000, name="lulesh"),
    ]

    cluster_nodes = 16
    config = SimulationConfig(
        topology="fat_tree", nodes_per_tor=4, oversubscription=4.0, cc_algorithm="mprdma"
    )

    # Two complementary per-job metrics come out of each cell:
    # * slowdown      — co-tenant runtime over an isolated run of the same job
    #                   under the *same* placement (pure cross-job contention),
    # * vs packed     — runtime relative to the packed cell (adds the job's own
    #                   loss of locality, the paper's Fig. 13 quantity).
    entries = interference_sweep(
        jobs,
        cluster_nodes,
        strategies=("packed", "fragmented", "random"),
        configs={"fat_tree_4to1": config},
        backend="htsim",
        seed=3,
        group_size=4,
    )
    packed_runtime = {
        e.job: e.runtime_ns for e in entries if e.strategy == "packed"
    }
    print(f"{'placement':<14} {'job':<8} {'runtime (ms)':>13} {'slowdown':>9} {'vs packed':>10} {'contended links':>16}")
    for e in entries:
        vs_packed = e.runtime_ns / packed_runtime[e.job]
        print(
            f"{e.strategy:<14} {e.job:<8} {e.runtime_ns / 1e6:>13.2f} "
            f"{e.slowdown:>8.2f}x {vs_packed:>9.2f}x {e.contended_link_count:>16d}"
        )

    # drill into one cell: which links do the jobs actually fight over?
    res = run_cotenant(
        jobs, cluster_nodes, strategy="fragmented", backend="htsim",
        config=config, group_size=4,
    )
    print("\nfragmented placement, busiest contended links:")
    contended = res.contended_links()
    for link, per_job in sorted(contended.items(), key=lambda kv: -sum(kv[1].values()))[:5]:
        shares = ", ".join(f"{job}={byts / 1e6:.1f} MB" for job, byts in per_job.items())
        print(f"  {link:<18} {shares}")


if __name__ == "__main__":
    main()
