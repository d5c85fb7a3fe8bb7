#!/usr/bin/env python
"""Fault-injection study: degraded fabrics, link flaps and switch drains.

Replays one all-to-all workload on a 4:1 oversubscribed fat tree while the
fabric degrades (see :mod:`repro.network.faults`):

1. a **failure-rate sweep** — a rising fraction of the switch-to-switch
   cables fails from time 0 (nested seeded draws, so the curve is monotone
   by construction), comparing how minimal/ECMP and UGAL-style adaptive
   routing ride out the lost capacity,
2. a **link-flap scenario** — a core uplink goes down mid-run and comes
   back later; in-flight packets are forced onto surviving candidate
   routes (the ``packets_rerouted`` counter) and stranded ones are
   recovered by loss timeout,
3. a **co-tenant run under faults** — two jobs share the degraded fabric
   and each job's slowdown is attributed against a healthy-fabric isolated
   baseline (fault + contention combined).

Run with::

    python examples/fault_resilience.py
"""
from repro.cluster import ClusterJob, run_cotenant
from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.network.faults import LINK_DOWN, LINK_UP
from repro.schedgen import all_to_all
from repro.scheduler import simulate
from repro.sweep import resilience_sweep


def main() -> None:
    schedule = all_to_all(32, 1 << 16)
    config = SimulationConfig(topology="fat_tree", nodes_per_tor=16, oversubscription=4.0)

    # 1. failure-rate sweep: minimal vs adaptive on a shrinking core
    entries = resilience_sweep(
        schedule,
        {"fat_tree_4to1": config},
        failure_rates=(0.0, 0.125, 0.25),
        routings=("minimal", "adaptive"),
        backend="htsim",
        failure_seed=1,
    )
    print(f"{'routing':<10} {'failure rate':>12} {'failed links':>13} {'runtime (ms)':>13} {'slowdown':>9}")
    for e in entries:
        print(
            f"{e.routing:<10} {e.failure_rate:>12.3f} {e.failed_links:>13d} "
            f"{e.finish_time_ns / 1e6:>13.3f} {e.slowdown:>8.3f}x"
        )

    # 2. link flap: a core uplink goes down mid-run, comes back 100 us later
    flap = FaultSchedule(
        events=(
            FaultEvent(30_000, LINK_DOWN, "tor0->core0"),
            FaultEvent(30_000, LINK_DOWN, "core0->tor0"),
            FaultEvent(130_000, LINK_UP, "tor0->core0"),
            FaultEvent(130_000, LINK_UP, "core0->tor0"),
        )
    )
    healthy = simulate(schedule, backend="htsim", config=config)
    flapped = simulate(schedule, backend="htsim", config=config.replace(faults=flap))
    print("\nlink flap (tor0<->core0 down 30-130 us):")
    print(f"  healthy runtime  {healthy.finish_time_ns / 1e6:8.3f} ms")
    print(
        f"  flapped runtime  {flapped.finish_time_ns / 1e6:8.3f} ms "
        f"({flapped.finish_time_ns / healthy.finish_time_ns:.3f}x, "
        f"{flapped.stats.packets_rerouted} packets rerouted, "
        f"{flapped.stats.packets_lost_to_faults} stranded)"
    )

    # 3. co-tenancy on a degraded fabric: who pays for the lost capacity?
    # fragmented placement spreads both jobs across the ToRs, so their
    # cross-ToR traffic shares the degraded core
    jobs = [
        ClusterJob(all_to_all(16, 1 << 16), name="jobA"),
        ClusterJob(all_to_all(16, 1 << 16), arrival_ns=20_000, name="jobB"),
    ]
    degraded = FaultSchedule(link_failure_rate=0.25, failure_seed=1)
    res = run_cotenant(
        jobs,
        cluster_nodes=32,
        strategy="fragmented",
        group_size=8,
        backend="htsim",
        config=config.replace(faults=degraded),
        fault_free_baseline=True,
    )
    print("\nco-tenant jobs on the degraded fabric (baseline: healthy, isolated):")
    for out in res.outcomes:
        print(
            f"  {out.name:<6} runtime {out.runtime_ns / 1e6:8.3f} ms   "
            f"fault+contention slowdown {out.slowdown:.3f}x"
        )


if __name__ == "__main__":
    main()
