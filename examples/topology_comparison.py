#!/usr/bin/env python
"""Compare topologies and routing strategies on one LLM-training workload.

Demonstrates the sweep API (:mod:`repro.sweep`): trace a small Llama-like
training job once, then replay the same GOAL schedule on a fat tree,
dragonfly, 2D torus and Slim Fly, each under minimal (ECMP) and UGAL-style
adaptive routing, on the packet-level backend.  The printed table shows how
the interconnect and the routing policy move both the predicted runtime and
the congestion signals while the *application* stays fixed — the paper's
core "one trace, many networks" workflow.

Run with::

    PYTHONPATH=src python examples/topology_comparison.py
"""
import os

from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.network import SimulationConfig
from repro.schedgen import nccl_trace_to_goal
from repro.sweep import default_topology_configs, topology_routing_sweep


def build_schedule():
    """An 8-GPU data-parallel Llama-like training iteration (laptop scale)."""
    model = llama_7b().scaled(0.02)
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=32)
    report = LlmTrainer(model, par, gpus_per_node=1, iterations=1).trace()
    return nccl_trace_to_goal(report, gpus_per_node=1)


def main() -> None:
    schedule = build_schedule()
    print(f"workload: {schedule.name}  ({schedule.num_ranks} ranks)")

    base = SimulationConfig(nodes_per_tor=4, oversubscription=4.0, buffer_size=1 << 17)
    configs = default_topology_configs(schedule.num_ranks, base)
    # parallel=N farms the grid's cells out to worker processes; results
    # are identical to the serial engine (cells are seeded up front)
    entries = topology_routing_sweep(
        schedule,
        configs,
        routings=("minimal", "adaptive"),
        backend="htsim",
        parallel=os.cpu_count(),
    )

    header = f"{'topology':<11} {'routing':<9} {'runtime':>10} {'drops':>6} {'ECN marks':>10}"
    print(header)
    print("-" * len(header))
    for e in entries:
        print(
            f"{e.topology:<11} {e.routing:<9} {e.finish_time_ns / 1e6:>8.2f}ms "
            f"{e.packets_dropped:>6d} {e.packets_ecn_marked:>10d}"
        )


if __name__ == "__main__":
    main()
