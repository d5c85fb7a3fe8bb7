#!/usr/bin/env python
"""Hierarchical vs flat allreduce across fabrics, plus the autotuner's view.

Demonstrates the collective algorithm engine (``docs/collectives.md``):
sweep a 32-rank allreduce over flat (ring, Rabenseifner) and topology-aware
(bucket/2D-ring, two-level hierarchical) algorithms on an oversubscribed
fat tree and a dragonfly, on the packet-level backend, and print each
cell's measured finish time next to what the analytic LogGOPS autotuner
(`select_algorithm`) would have picked.

Run with::

    PYTHONPATH=src python examples/hierarchical_collectives.py
"""
import os

from repro.network import SimulationConfig
from repro.sweep import collective_sweep

RANKS = 32
SIZES = (262144, 4194304)  # 256 KiB (mixed) and 4 MiB (bandwidth-bound)
ALGORITHMS = ("ring", "recursive_halving_doubling", "bucket", "hier_rs", "auto")


def main() -> None:
    configs = {
        "fat_tree 4:1": SimulationConfig(topology="fat_tree", oversubscription=4.0),
        "dragonfly": SimulationConfig(topology="dragonfly"),
    }
    workers = min(8, os.cpu_count() or 1)
    entries = collective_sweep(
        configs,
        num_ranks=RANKS,
        sizes=SIZES,
        algorithms=ALGORITHMS,
        backend="htsim",
        parallel=workers,
    )

    print(f"allreduce, {RANKS} ranks, packet backend ({workers} workers)\n")
    print(f"{'topology':14s} {'size':>10s} {'algorithm':>28s} {'finish':>10s}   autotuner")
    winners = {}
    for e in entries:
        key = (e.topology, e.size)
        if key not in winners or e.finish_time_ns < winners[key].finish_time_ns:
            winners[key] = e
        marker = " <- auto" if e.algorithm == "auto" else ""
        print(
            f"{e.topology:14s} {e.size:>10d} {e.resolved:>28s} "
            f"{e.finish_time_ns / 1e3:>8.1f}us   {e.autotuner_pick}{marker}"
        )
    print("\nmeasured winners:")
    for (topo, size), e in sorted(winners.items()):
        agree = "agrees" if e.autotuner_pick == e.resolved else "disagrees"
        print(
            f"  {topo:14s} {size:>10d}B -> {e.resolved} "
            f"({e.finish_time_ns / 1e3:.1f}us; autotuner {agree})"
        )


if __name__ == "__main__":
    main()
