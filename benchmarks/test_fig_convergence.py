"""Control-plane convergence figure: time-to-recover and blackhole loss.

The resilience benchmark (``test_fig_resilience.py``) assumes an *oracle*
control plane — every switch reroutes the instant a cable dies.  This
harness opens the convergence axis (:mod:`repro.network.control_plane`):
the same all-to-all workload replayed while a cable fails mid-run, under
link-state flooding (``ls``) and distance-vector (``dv``) route
advertisement, sweeping the advertisement propagation delay.

Two cells are measured:

* **4:1 fat tree, core-uplink failure** — the failed cable carries live
  traffic, so during the stale window packets vanish into black holes and
  loss-timeout retransmissions re-enter them until the source's ToR has
  learned the failure.  Blackhole counts must rise monotonically with the
  propagation delay; the oracle must report exactly zero (and identical
  runtimes at every delay — the delay knob must not touch oracle runs).
* **dragonfly, spare global-cable failure** — the dragonfly's minimal
  routing is single-path per host pair (one global cable per group pair),
  so failing any *used* cable partitions the fabric and the simulator
  raises, by design.  Failing a spare cable between the two unpopulated
  groups instead isolates the pure control-plane observables: the
  advertisement wave still crosses the whole switch graph, so
  time-to-recover scales with the propagation delay, distance-vector pays
  ~2x link-state (two exchange rounds per hop), and both backends must
  report bit-identical TTR and message counts (convergence timing is a
  property of the fabric, not of the traffic model).
"""
from __future__ import annotations

from benchmarks.conftest import print_table, run_once
from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.network.faults import LINK_DOWN
from repro.schedgen import all_to_all
from repro.scheduler import simulate

RANKS = 32
PROTOCOLS = ("oracle", "ls", "dv")
PROPAGATION_NS = (1_000, 50_000, 200_000)  # spans the 100 us loss timeout
FAULT_TIME_NS = 30_000
BACKENDS = ("lgs", "htsim")


def _fault(*link_names: str) -> FaultSchedule:
    return FaultSchedule(
        events=tuple(FaultEvent(FAULT_TIME_NS, LINK_DOWN, n) for n in link_names)
    )


def _run_grid(config: SimulationConfig):
    """{(backend, protocol, propagation): (finish, ttr, blackholed, messages)}."""
    schedule = all_to_all(RANKS, 1 << 16)
    cells = {}
    for backend_name in BACKENDS:
        for protocol in PROTOCOLS:
            for propagation_ns in PROPAGATION_NS:
                result = simulate(
                    schedule,
                    backend=backend_name,
                    config=config.replace(
                        control_plane=protocol, cp_propagation_ns=propagation_ns
                    ),
                )
                cells[(backend_name, protocol, propagation_ns)] = (
                    result.finish_time_ns,
                    result.stats.time_to_recover_ns,
                    result.stats.packets_blackholed,
                    sum(r.messages for r in result.convergence_records),
                )
    return cells


def _print_grid(title: str, cells) -> None:
    print_table(
        title,
        ["backend", "protocol", "propagation", "runtime", "TTR", "blackholed", "messages"],
        [
            (
                backend,
                protocol,
                f"{propagation_ns} ns",
                f"{finish / 1e6:.3f} ms",
                f"{ttr} ns",
                blackholed,
                messages,
            )
            for (backend, protocol, propagation_ns), (
                finish,
                ttr,
                blackholed,
                messages,
            ) in sorted(cells.items())
        ],
    )


def _assert_convergence_invariants(cells) -> None:
    """Invariants shared by both topology cells."""
    for backend in BACKENDS:
        # the oracle converges instantly, at every propagation delay, and
        # the delay knob must not perturb its simulation at all
        oracle_finishes = {cells[(backend, "oracle", p)][0] for p in PROPAGATION_NS}
        assert len(oracle_finishes) == 1, (
            f"{backend}: oracle runtimes vary with propagation delay: {oracle_finishes}"
        )
        for propagation_ns in PROPAGATION_NS:
            _, ttr, blackholed, messages = cells[(backend, "oracle", propagation_ns)]
            assert ttr == 0 and blackholed == 0 and messages == 0
        for protocol in ("ls", "dv"):
            ttrs = [cells[(backend, protocol, p)][1] for p in PROPAGATION_NS]
            # convergence takes real time and slower advertisements take longer
            assert all(t > 0 for t in ttrs), f"{backend}/{protocol}: TTR {ttrs}"
            assert ttrs == sorted(ttrs) and ttrs[-1] > ttrs[0]
        for propagation_ns in PROPAGATION_NS:
            # distance-vector pays two exchange rounds per hop: slower than
            # link-state flooding, with exactly twice the message count
            ls_ttr, ls_msgs = (
                cells[(backend, "ls", propagation_ns)][1],
                cells[(backend, "ls", propagation_ns)][3],
            )
            dv_ttr, dv_msgs = (
                cells[(backend, "dv", propagation_ns)][1],
                cells[(backend, "dv", propagation_ns)][3],
            )
            assert dv_ttr > ls_ttr
            assert dv_msgs == 2 * ls_msgs
    # convergence timing is a property of the fabric and the protocol, not
    # of the traffic model: both backends agree bit-exactly
    for protocol in PROTOCOLS:
        for propagation_ns in PROPAGATION_NS:
            lgs = cells[("lgs", protocol, propagation_ns)]
            htsim = cells[("htsim", protocol, propagation_ns)]
            assert lgs[1] == htsim[1], f"{protocol}@{propagation_ns}: TTR disagrees"
            assert lgs[3] == htsim[3], f"{protocol}@{propagation_ns}: messages disagree"


def test_fig_convergence_fat_tree_blackholes(benchmark):
    config = SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=16,
        oversubscription=4.0,
        faults=_fault("tor0->core0", "core0->tor0"),
    )
    cells = run_once(benchmark, _run_grid, config)
    _print_grid(
        "Convergence on a 4:1 fat tree (core uplink fails at 30 us)", cells
    )
    _assert_convergence_invariants(cells)

    for protocol in ("ls", "dv"):
        # packet backend: stale ToRs blackhole live traffic, and a slower
        # control plane loses strictly more packets (retransmissions keep
        # re-entering the black hole until the source ToR learns)
        blackholed = [cells[("htsim", protocol, p)][2] for p in PROPAGATION_NS]
        assert all(b > 0 for b in blackholed), f"{protocol}: {blackholed}"
        assert blackholed == sorted(blackholed) and blackholed[-1] > blackholed[0]
        # the message-level backend models convergence as a capacity ramp,
        # not per-packet forwarding: no packets exist to blackhole
        for propagation_ns in PROPAGATION_NS:
            assert cells[("lgs", protocol, propagation_ns)][2] == 0


def test_fig_convergence_dragonfly_ttr(benchmark):
    # the spare cable joins the two unpopulated groups (ranks fill groups
    # 0-1 of the default 4x4x4 dragonfly); see the module docstring
    config = SimulationConfig(
        topology="dragonfly",
        faults=_fault("g2.r1->g3.r2", "g3.r2->g2.r1"),
    )
    cells = run_once(benchmark, _run_grid, config)
    _print_grid(
        "Convergence on a dragonfly (spare global cable fails at 30 us)", cells
    )
    _assert_convergence_invariants(cells)

    for backend in BACKENDS:
        for propagation_ns in PROPAGATION_NS:
            for protocol in ("ls", "dv"):
                # no rank routes over the spare cable, so convergence costs
                # no packets -- the stale window is real but loss-free
                assert cells[(backend, protocol, propagation_ns)][2] == 0
