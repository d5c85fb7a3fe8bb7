"""Degradation curves on a faulty 4:1 fat tree (resilience benchmark).

The paper validates app-centric simulation on healthy fabrics only; this
harness opens the reliability axis: the same all-to-all workload replayed on
a 4:1 oversubscribed fat tree while core capacity is progressively removed
by the fault-injection subsystem (:mod:`repro.network.faults`).

Two curves are measured:

* **explicit core drains** — failing whole core switches (both cable
  directions, every ToR) gives a deterministic capacity story:
  4 -> 3 -> 2 surviving cores.  Slowdown must rise strictly monotonically
  with the drained fraction, and UGAL-style adaptive routing — which picks
  the least-loaded surviving core instead of hashing blindly — must degrade
  less than minimal ECMP at every faulted point,
* **random cable draws** — :func:`repro.sweep.resilience_sweep` over a
  link-failure-rate axis with a fixed seed.  Draws are nested across rates,
  so the curve must be monotone non-decreasing by construction, not just in
  expectation.
"""
from __future__ import annotations

from benchmarks.conftest import print_table, run_once
from repro.network import FaultSchedule, SimulationConfig
from repro.schedgen import all_to_all
from repro.scheduler import simulate
from repro.sweep import resilience_sweep

RANKS = 32  # two 16-host ToRs, 4 cores at 4:1
ROUTINGS = ("minimal", "adaptive")
DRAIN_FRACTIONS = (0.0, 0.25, 0.5)  # fraction of core switches removed


def _config() -> SimulationConfig:
    return SimulationConfig(
        topology="fat_tree", nodes_per_tor=16, oversubscription=4.0
    )


def _drained_cores(fraction: float) -> FaultSchedule:
    """Fail every cable of the first ``fraction * num_cores`` core switches."""
    num_cores = 4
    names = []
    for core in range(int(fraction * num_cores)):
        for tor in (0, 1):
            names += [f"tor{tor}->core{core}", f"core{core}->tor{tor}"]
    return FaultSchedule(failed_links=tuple(names))


def _explicit_curves():
    schedule = all_to_all(RANKS, 1 << 16)
    config = _config()
    curves = {}
    for routing in ROUTINGS:
        finishes = []
        for fraction in DRAIN_FRACTIONS:
            result = simulate(
                schedule,
                backend="htsim",
                config=config.replace(routing=routing, faults=_drained_cores(fraction)),
            )
            finishes.append(result.finish_time_ns)
        curves[routing] = finishes
    return curves


def test_fig_resilience_degradation_curve(benchmark):
    curves = run_once(benchmark, _explicit_curves)

    rows = []
    for routing, finishes in curves.items():
        base = finishes[0]
        for fraction, finish in zip(DRAIN_FRACTIONS, finishes):
            rows.append(
                (routing, f"{fraction:.2f}", f"{finish / 1e6:.3f} ms", f"{finish / base:.3f}x")
            )
    print_table(
        "Degradation curve (all-to-all, 4:1 fat tree, drained core switches)",
        ["routing", "drained fraction", "runtime", "slowdown"],
        rows,
    )

    # slowdown rises strictly monotonically as core capacity is removed
    for routing, finishes in curves.items():
        for healthier, degraded in zip(finishes, finishes[1:]):
            assert degraded > healthier, (
                f"{routing}: expected strictly increasing finish times, got {finishes}"
            )
    # load-aware adaptive routing degrades less than blind ECMP at every
    # faulted point (both absolutely and relative to its own healthy run)
    for idx, fraction in enumerate(DRAIN_FRACTIONS):
        if fraction == 0.0:
            continue
        min_slow = curves["minimal"][idx] / curves["minimal"][0]
        ada_slow = curves["adaptive"][idx] / curves["adaptive"][0]
        assert ada_slow < min_slow, (
            f"at drained fraction {fraction}: adaptive slowdown {ada_slow:.3f} "
            f"should be below minimal's {min_slow:.3f}"
        )
        assert curves["adaptive"][idx] < curves["minimal"][idx]


def test_fig_resilience_random_rate_sweep():
    entries = resilience_sweep(
        all_to_all(RANKS, 1 << 16),
        {"fat_tree_4to1": _config()},
        failure_rates=(0.0, 0.125, 0.25, 0.375),
        routings=("minimal",),
        backend="htsim",
        failure_seed=1,
    )
    print_table(
        "Random-cable failure-rate sweep (nested draws, seed 1)",
        ["rate", "failed links", "runtime", "slowdown"],
        [
            (e.failure_rate, e.failed_links, f"{e.finish_time_ns / 1e6:.3f} ms", f"{e.slowdown:.3f}x")
            for e in entries
        ],
    )
    # nested draws: higher rates fail supersets of cables, so the curve is
    # monotone non-decreasing cell by cell, and strictly worse at the top
    finishes = [e.finish_time_ns for e in entries]
    assert finishes == sorted(finishes)
    assert finishes[-1] > finishes[0]
    failed = [e.failed_links for e in entries]
    assert failed == sorted(failed) and failed[0] == 0 and failed[-1] > 0
