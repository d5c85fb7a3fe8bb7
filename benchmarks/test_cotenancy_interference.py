"""Co-tenancy interference benchmark (Fig. 13 generalised).

Two communication-heavy jobs (all-to-all fronts) share a 4:1 oversubscribed
fat tree through the multi-job co-tenancy engine.  The harness sweeps the
placement strategy (packed vs fragmented vs random) with the packet backend
and reports, per job, the *attributed* slowdown — co-tenant runtime over an
isolated run of the same job under the same placement, i.e. pure cross-job
contention with locality held constant — plus how many links each job
shares with the other.

Shape assertions: a packed allocation keeps the jobs on disjoint ToRs (no
contended links, slowdown ~1), while a fragmented allocation forces both
jobs through the oversubscribed core, producing measurable per-job slowdown
attributed to specific shared links.
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, run_once
from repro.cluster import ClusterJob, run_cotenant
from repro.network import SimulationConfig
from repro.schedgen import all_to_all
from repro.sweep import interference_sweep

CLUSTER_NODES = 16
RANKS_PER_JOB = 8
MESSAGE_SIZE = 1 << 18


def _jobs():
    return [
        ClusterJob(all_to_all(RANKS_PER_JOB, MESSAGE_SIZE), name="jobA"),
        ClusterJob(all_to_all(RANKS_PER_JOB, MESSAGE_SIZE), name="jobB"),
    ]


def _config():
    return SimulationConfig(
        topology="fat_tree", nodes_per_tor=4, oversubscription=4.0,
        cc_algorithm="mprdma", seed=7,
    )


def test_cotenancy_interference(benchmark):
    jobs = _jobs()

    def run_sweep():
        return interference_sweep(
            jobs,
            CLUSTER_NODES,
            strategies=("packed", "fragmented", "random"),
            configs={"ft_4to1": _config()},
            backend="htsim",
            seed=3,
            group_size=4,
        )

    entries = run_once(benchmark, run_sweep)
    rows = [
        (
            e.strategy,
            e.job,
            f"{e.runtime_ns / 1e6:.3f} ms",
            f"{e.slowdown:.2f}x",
            e.contended_link_count,
        )
        for e in entries
    ]
    print_table(
        "Co-tenancy interference  2 x alltoall (4:1 oversubscribed fat tree)",
        ["placement", "job", "runtime", "slowdown", "contended links"],
        rows,
    )

    by_strategy = {}
    for e in entries:
        by_strategy.setdefault(e.strategy, []).append(e)

    # packed keeps the jobs on disjoint ToRs: no shared links, no slowdown
    for e in by_strategy["packed"]:
        assert e.contended_link_count == 0
        assert e.slowdown == pytest.approx(1.0, abs=0.02)

    # fragmented drives both jobs through the shared core: every job pays a
    # measurable, attributed slowdown over specific contended links
    for e in by_strategy["fragmented"]:
        assert e.contended_link_count > 0
        assert e.slowdown > 1.15
        packed_twin = next(p for p in by_strategy["packed"] if p.job == e.job)
        assert e.slowdown > packed_twin.slowdown + 0.1


def test_cotenancy_contended_link_attribution():
    """The per-link breakdown names the shared links and both jobs' shares."""
    res = run_cotenant(
        _jobs(),
        CLUSTER_NODES,
        strategy="fragmented",
        backend="htsim",
        config=_config(),
        group_size=4,
    )
    contended = res.contended_links()
    assert contended, "fragmented placement must share links between the jobs"
    # every contended link names both jobs with non-zero byte shares
    for link, per_job in contended.items():
        assert set(per_job) == {"jobA", "jobB"}
        assert all(byts > 0 for byts in per_job.values())
    # attribution is conserved: each job's total link bytes match its stats
    for out in res.outcomes:
        assert out.messages_delivered == RANKS_PER_JOB * (RANKS_PER_JOB - 1)
        assert out.bytes_delivered == out.messages_delivered * MESSAGE_SIZE
