#!/usr/bin/env python
"""Control-plane convergence study: routing that heals over time.

The fault-injection examples assume an *oracle* control plane: the instant a
cable dies, every switch already routes around it.  Real fabrics converge —
advertisements propagate hop by hop, and until they arrive, switches forward
onto dead links and packets vanish into black holes.  This example replays
one all-to-all workload on a 4:1 oversubscribed fat tree while a core uplink
fails mid-run, under the three convergence models in
:mod:`repro.network.control_plane`:

1. **oracle** — no control plane: every switch knows the failure the
   instant it happens (the default, time-to-recover identically zero).  It
   is not a lower bound: a zero-delay ``ls`` wave still re-hashes flows and
   learns after same-instant packets (see ``docs/control_plane.md``),
2. **ls** — link-state flooding: one advertisement wave over the surviving
   switch graph,
3. **dv** — distance-vector: per-neighbour exchange rounds, roughly twice
   the link-state convergence time.

For each model it reports time-to-recover, blackholed packets and protocol
message counts (via :func:`repro.measurement.summarize_convergence`), then
sweeps the advertisement propagation delay to show blackhole loss growing
with a slower control plane.

Run with::

    python examples/control_plane_convergence.py
"""
from repro.measurement import summarize_convergence
from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.network.faults import LINK_DOWN
from repro.schedgen import all_to_all
from repro.scheduler import simulate

RANKS = 32
FAULT = FaultSchedule(
    events=(
        FaultEvent(30_000, LINK_DOWN, "tor0->core0"),
        FaultEvent(30_000, LINK_DOWN, "core0->tor0"),
    )
)


def _config(control_plane: str, propagation_ns: int = 500) -> SimulationConfig:
    return SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=16,
        oversubscription=4.0,
        faults=FAULT,
        control_plane=control_plane,
        cp_propagation_ns=propagation_ns,
    )


def main() -> None:
    schedule = all_to_all(RANKS, 1 << 16)

    # 1. the three convergence models on both backends
    print(
        f"{'backend':<8} {'protocol':<9} {'runtime (ms)':>13} "
        f"{'TTR (ns)':>10} {'blackholed':>11} {'messages':>9}"
    )
    for backend_name in ("lgs", "htsim"):
        for protocol in ("oracle", "ls", "dv"):
            result = simulate(schedule, backend=backend_name, config=_config(protocol))
            summary = summarize_convergence(result.convergence_records, result.stats)
            print(
                f"{backend_name:<8} {protocol:<9} {result.finish_time_ns / 1e6:>13.3f} "
                f"{result.stats.time_to_recover_ns:>10d} "
                f"{result.stats.packets_blackholed:>11d} {summary.convergence_messages:>9d}"
            )

    # 2. slower advertisements -> longer stale window -> more blackholed
    # packets (retransmissions re-enter the black hole until the source's
    # first-hop switch has learned about the dead uplink)
    print("\npropagation-delay sweep (htsim, dv):")
    print(f"{'propagation (ns)':>17} {'TTR (ns)':>10} {'blackholed':>11} {'blackhole %':>12}")
    for propagation_ns in (1_000, 50_000, 200_000):
        result = simulate(schedule, backend="htsim", config=_config("dv", propagation_ns))
        summary = summarize_convergence(result.convergence_records, result.stats)
        print(
            f"{propagation_ns:>17d} {result.stats.time_to_recover_ns:>10d} "
            f"{result.stats.packets_blackholed:>11d} "
            f"{100 * summary.blackhole_fraction:>11.4f}%"
        )


if __name__ == "__main__":
    main()
