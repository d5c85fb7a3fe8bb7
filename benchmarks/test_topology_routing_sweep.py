"""Topology x routing sweep on the Fig. 12-style oversubscribed workload.

The paper's Fig. 12 contrasts the backends on a fat tree with and without
oversubscription; this harness extends that axis across the full topology
zoo (fat tree, dragonfly, torus, Slim Fly) and the pluggable routing
strategies (minimal/ECMP, Valiant, UGAL-style adaptive), using the same
Llama-like training trace.  For every cell it reports the packet backend's
predicted runtime plus the congestion signals (drops, ECN marks, peak queue)
that distinguish the fabrics.
"""
from __future__ import annotations

from benchmarks.conftest import print_table, run_once
from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.network import SimulationConfig
from repro.schedgen import nccl_trace_to_goal
from repro.sweep import default_topology_configs, topology_routing_sweep

ROUTINGS = ("minimal", "valiant", "adaptive")


def _schedule():
    model = llama_7b().scaled(0.03)
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=32)
    report = LlmTrainer(model, par, gpus_per_node=1, iterations=1).trace()
    return nccl_trace_to_goal(report, gpus_per_node=1)


def test_topology_routing_sweep(benchmark):
    schedule = _schedule()
    base = SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=4,
        oversubscription=4.0,
        buffer_size=1 << 17,
        seed=5,
    )
    configs = default_topology_configs(schedule.num_ranks, base)

    entries = run_once(
        benchmark,
        lambda: topology_routing_sweep(schedule, configs, routings=ROUTINGS, backend="htsim"),
    )

    rows = [
        (
            e.topology,
            e.routing,
            f"{e.finish_time_ns / 1e6:.2f} ms",
            e.packets_dropped,
            e.packets_ecn_marked,
            f"{e.max_queue_bytes >> 10} KiB",
        )
        for e in entries
    ]
    print_table(
        "Topology x routing sweep (Fig. 12-style oversubscribed LLM workload, htsim)",
        ["topology", "routing", "runtime", "drops", "ECN marks", "peak queue"],
        rows,
    )

    by_cell = {(e.topology, e.routing): e for e in entries}
    assert len(entries) == len(configs) * len(ROUTINGS)
    # every cell simulates the whole schedule
    expected_msgs = entries[0].messages_delivered
    assert expected_msgs > 0
    assert all(e.messages_delivered == expected_msgs for e in entries)
    assert all(e.finish_time_ns > 0 for e in entries)
    # the 4:1 oversubscribed fat tree shows congestion that minimal routing
    # cannot avoid (the signal Fig. 12's right panel reports)
    ft_min = by_cell[("fat_tree", "minimal")]
    assert ft_min.packets_dropped + ft_min.packets_ecn_marked > 0
    # on the torus, valiant's longer paths are visible when idle capacity
    # exists, while adaptive stays within a small factor of minimal
    assert by_cell[("torus", "valiant")].finish_time_ns >= by_cell[("torus", "minimal")].finish_time_ns * 0.95
