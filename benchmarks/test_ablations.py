"""Ablations over the design choices called out in DESIGN.md.

Not a paper figure: these benches quantify the sensitivity of the toolchain's
predictions to (a) the collective algorithm substituted during GOAL
generation, (b) the NCCL protocol / chunking configuration, and (c) the ECN
marking thresholds of the packet backend — the knobs a user of the toolchain
is most likely to sweep.
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, run_once
from repro.collectives import COLLECTIVE_ALGORITHMS, CollectiveContext, build_collective_schedule
from repro.collectives import nccl as cnccl
from repro.goal import GoalBuilder
from repro.network import SimulationConfig
from repro.schedgen import incast
from repro.scheduler import simulate


def test_ablation_allreduce_algorithm(benchmark):
    """Every flat registered allreduce (ring, recursive doubling, reduce+bcast,
    Rabenseifner, bucket) at two sizes."""

    def run_all():
        rows = []
        for size, label in ((8 << 10, "8 KiB"), (8 << 20, "8 MiB")):
            for name, alg in COLLECTIVE_ALGORITHMS["allreduce"].items():
                if alg.hierarchical:
                    continue
                schedule = build_collective_schedule("allreduce", name, 16, size)
                t = simulate(schedule, backend="lgs").finish_time_ns
                rows.append((label, name, t))
        return rows

    rows = run_once(benchmark, run_all)
    print_table(
        "Ablation  allreduce algorithm (LGS, 16 ranks)",
        ["buffer", "algorithm", "time (us)"],
        [(size, name, f"{t / 1e3:.1f}") for size, name, t in rows],
    )
    by_size = {}
    for size, name, t in rows:
        by_size.setdefault(size, {})[name] = t
    # large buffers favour the bandwidth-optimal ring; the latency-bound
    # recursive doubling must not win the 8 MiB case
    assert by_size["8 MiB"]["ring"] <= by_size["8 MiB"]["recursive_doubling"]


def test_ablation_nccl_protocol(benchmark):
    """NCCL Simple vs LL protocol for one allreduce (LL pays a bandwidth tax)."""

    def run_all():
        out = {}
        for proto in ("Simple", "LL", "LL128"):
            b = GoalBuilder(8)
            cfg = cnccl.NcclConfig(protocol=proto, nchannels=2)
            cnccl.allreduce(CollectiveContext(b, list(range(8))), 8 << 20, cfg)
            out[proto] = simulate(b.build(), backend="lgs").finish_time_ns
        return out

    out = run_once(benchmark, run_all)
    print_table(
        "Ablation  NCCL protocol (8 MiB allreduce, 8 ranks)",
        ["protocol", "time (us)"],
        [(proto, f"{t / 1e3:.1f}") for proto, t in out.items()],
    )
    assert out["LL"] > out["Simple"]


def test_ablation_ecn_thresholds(benchmark):
    """Aggressive vs permissive ECN thresholds under incast."""
    sched = incast(16, 1 << 20, receiver=0, senders=list(range(8, 16)))

    def run_all():
        out = {}
        for kmin, kmax, label in ((0.05, 0.2, "aggressive"), (0.2, 0.8, "paper default"), (0.6, 0.95, "permissive")):
            cfg = SimulationConfig(
                topology="fat_tree",
                nodes_per_tor=8,
                oversubscription=4.0,
                ecn_kmin_frac=kmin,
                ecn_kmax_frac=kmax,
                buffer_size=1 << 17,
            )
            res = simulate(sched, backend="htsim", config=cfg)
            out[label] = (res.finish_time_ns, res.stats.packets_ecn_marked, res.stats.packets_dropped)
        return out

    out = run_once(benchmark, run_all)
    print_table(
        "Ablation  ECN thresholds (incast over 4:1 oversubscribed fabric)",
        ["thresholds", "time (us)", "ECN marks", "drops"],
        [(k, f"{v[0] / 1e3:.1f}", v[1], v[2]) for k, v in out.items()],
    )
    assert out["aggressive"][1] >= out["permissive"][1]
