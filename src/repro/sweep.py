"""Sweep APIs: topology x routing, collectives, co-tenancy and resilience grids.

:func:`topology_routing_sweep` runs one GOAL schedule across a grid of
topologies and routing strategies and collects runtime plus congestion
signals for each combination — the programmatic form of the paper's "same
workload, different interconnect" experiments, extended over the pluggable
routing subsystem.

:func:`interference_sweep` runs a *set of concurrent jobs* across a grid of
placement strategies and topology configurations through the co-tenancy
engine (:mod:`repro.cluster`), and reports per-job runtime, slowdown versus
an isolated run, and contention shares — the generalised form of the
paper's Fig. 13 placement case study.

:func:`resilience_sweep` runs one schedule across a workload x topology x
link-failure-rate grid (see :mod:`repro.network.faults`) and reports each
cell's runtime plus its slowdown against the healthy cell of the same
(topology, routing) — the degradation curves behind
``benchmarks/test_fig_resilience.py`` and ``atlahs faults``.  Random
failure draws are nested across rates for a fixed seed, so the curves are
monotone in the failed set, not just in expectation.

:func:`inference_sweep` runs the inference-serving workload family
(:mod:`repro.apps.inference`) across an offered-load grid and reports each
cell's serving metrics — goodput, SLO-percentile TTFT/TPOT and batch
occupancy — the engine behind ``atlahs inference`` and the goodput-knee /
p999-blow-up curves in ``benchmarks/test_fig_inference_slo.py``.

:func:`collective_sweep` runs one collective operation across an
algorithm x topology x message-size grid through the
:mod:`repro.collectives.algorithms` registry: every cell builds the
collective's GOAL schedule with the topology's locality groups (ranks
packed onto hosts in order), simulates it, and reports the finish time
next to what the LogGOPS autotuner would have picked — the engine behind
``atlahs collectives --sweep`` and the hierarchical-vs-flat comparisons
in ``docs/collectives.md``.

Typical use::

    from repro.sweep import default_topology_configs, topology_routing_sweep

    configs = default_topology_configs(schedule.num_ranks)
    entries = topology_routing_sweep(schedule, configs,
                                     routings=("minimal", "valiant", "adaptive"),
                                     backend="htsim", parallel=4)
    for e in entries:
        print(e.topology, e.routing, e.finish_time_ns, e.packets_dropped)

Parallel execution
------------------
``parallel=N`` runs the grid's cells on ``N`` worker processes
(:mod:`repro.workers`, shared with the sharded packet engine), which get
the cell list once and are handed cell indices.  Results are *identical*
to the serial engine: every cell's configuration — including its seed —
is derived deterministically before any worker starts, each simulation
owns its private RNG seeded only from that configuration, and entries are
returned in grid order regardless of which worker finished first.
``tests/test_perf_determinism.py`` asserts the parallel/serial equality.
Failures are loud, never a serial rerun: a cell's exception keeps its
type, a dead worker is one :class:`~repro.workers.WorkerError` naming its
cell, and where processes cannot start the error says ``parallel=None``.

``examples/topology_comparison.py`` demonstrates the API on a small LLM
training workload; ``benchmarks/test_topology_routing_sweep.py`` uses it for
the oversubscription comparison, and
``benchmarks/test_cotenancy_interference.py`` drives the interference grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import workers
from repro.goal.schedule import GoalSchedule
from repro.network.config import SimulationConfig
from repro.scheduler import simulate


@dataclass(frozen=True)
class SweepEntry:
    """Result of one (topology, routing, backend) cell of a sweep."""

    topology: str
    routing: str
    backend: str
    finish_time_ns: int
    wall_clock_s: float
    messages_delivered: int
    packets_dropped: int
    packets_ecn_marked: int
    max_queue_bytes: int

    @property
    def finish_time_ms(self) -> float:
        return self.finish_time_ns / 1e6


def default_topology_configs(
    num_hosts: int, base: Optional[SimulationConfig] = None
) -> Dict[str, SimulationConfig]:
    """One ready-to-run config per topology family, sized to ``num_hosts``.

    Shape parameters carried by ``base`` (oversubscription, link speeds,
    buffer sizes, congestion control, ...) are preserved; only the knobs
    needed to *fit* ``num_hosts`` endpoints are adjusted:

    * ``fat_tree`` — fits any host count as-is,
    * ``fat_tree_multiplane`` — same, with the core tier split into the
      configured ``fattree_planes`` planes (clamped to the per-ToR uplink
      budget),
    * ``fat_tree_rail`` — rails shrink to the largest of {4, 2, 1} dividing
      ``num_hosts`` (every server must contribute one GPU per rail),
    * ``dragonfly`` — ``nodes_per_router`` grows to reach capacity,
    * ``torus`` — a near-square 2D torus over the configured
      ``torus_hosts_per_node``,
    * ``slimfly`` — ``hosts_per_router`` grows to reach capacity for the
      configured ``slimfly_q``.
    """
    if num_hosts <= 0:
        raise ValueError("num_hosts must be positive")
    base = base if base is not None else SimulationConfig()

    df_radix = base.dragonfly_groups * base.dragonfly_routers_per_group
    df_nodes_per_router = max(
        base.dragonfly_nodes_per_router, math.ceil(num_hosts / df_radix)
    )

    torus_nodes = math.ceil(num_hosts / base.torus_hosts_per_node)
    side = max(2, math.ceil(math.sqrt(torus_nodes)))
    other = max(2, math.ceil(torus_nodes / side))

    sf_routers = 2 * base.slimfly_q * base.slimfly_q
    sf_hosts_per_router = max(1, math.ceil(num_hosts / sf_routers))

    rails = next(r for r in (base.fattree_rails, 4, 2, 1) if num_hosts % r == 0)
    uplinks = max(1, int(round(base.nodes_per_tor / base.oversubscription)))
    planes = max(1, min(base.fattree_planes, uplinks))

    return {
        "fat_tree": base.replace(topology="fat_tree"),
        "fat_tree_multiplane": base.replace(
            topology="fat_tree_multiplane", fattree_planes=planes
        ),
        "fat_tree_rail": base.replace(topology="fat_tree_rail", fattree_rails=rails),
        "dragonfly": base.replace(
            topology="dragonfly", dragonfly_nodes_per_router=df_nodes_per_router
        ),
        "torus": base.replace(topology="torus", torus_dims=(side, other)),
        "slimfly": base.replace(
            topology="slimfly", slimfly_hosts_per_router=sf_hosts_per_router
        ),
    }


def _execute_cells(fn: Callable, cells: List, parallel: Optional[int]) -> List:
    """``[fn(cell) for cell in cells]``, on ``parallel`` worker processes.

    The shared sweep executor; ``parallel`` of ``None``, 0 or 1 runs in
    this process.  The workers' payload is ``(fn, cells)``; each is handed
    cell indices whenever it is free, and results come back in grid order.
    """
    if parallel is not None and parallel < 0:
        raise ValueError(f"parallel must be >= 0 (None, 0 or 1: in-process), got {parallel}")
    if (parallel or 0) < 2 or len(cells) < 2:
        return [fn(cell) for cell in cells]
    count = min(parallel, len(cells))
    with workers.Workers(count, (fn, cells), "sweep cell", "parallel=None") as pool:
        return pool.map(_cell_at, len(cells))


def _cell_at(state, k: int):
    """Run cell ``k`` of the payload's grid, inside a sweep worker."""
    fn, cells = state.payload
    return fn(cells[k])


def _run_cell(args: Tuple[GoalSchedule, str, str, SimulationConfig, str]) -> SweepEntry:
    """Simulate one sweep cell (module-level so worker processes can pickle it)."""
    schedule, label, routing, config, backend = args
    result = simulate(schedule, backend=backend, config=config)
    return SweepEntry(
        topology=label,
        routing=routing,
        backend=result.backend,
        finish_time_ns=result.finish_time_ns,
        wall_clock_s=result.wall_clock_s,
        messages_delivered=result.stats.messages_delivered,
        packets_dropped=result.stats.packets_dropped,
        packets_ecn_marked=result.stats.packets_ecn_marked,
        max_queue_bytes=result.stats.max_queue_bytes,
    )


def topology_routing_sweep(
    schedule: GoalSchedule,
    configs: Dict[str, SimulationConfig],
    routings: Sequence[str] = ("minimal", "valiant", "adaptive"),
    backend: str = "htsim",
    parallel: Optional[int] = None,
) -> List[SweepEntry]:
    """Simulate ``schedule`` for every (topology config) x (routing) cell.

    Parameters
    ----------
    schedule:
        The GOAL program to replay in every cell.
    configs:
        Mapping of topology label to the :class:`SimulationConfig` to use
        (see :func:`default_topology_configs`); the label is echoed into
        :attr:`SweepEntry.topology`.
    routings:
        Routing strategy names to apply to each config.
    backend:
        ``"htsim"`` (packet-level, reports congestion) or ``"lgs"``.
        Note that on ``"lgs"`` the routing axis only differentiates cells
        whose config routes through the topology (torus/slimfly by default;
        see :meth:`SimulationConfig.loggops_topology_enabled`) — flat-``L``
        cells return identical rows for every routing.  Pass configs with
        ``loggops_use_topology=True`` to compare routing on any topology.
    parallel:
        Number of worker processes; ``None``, ``0`` or ``1`` runs serially
        in-process, a negative count raises :class:`ValueError`.  Cells are
        independent simulations with per-cell seeds fixed up front, so the
        parallel engine returns entries identical to the serial one, in the
        same grid order.
    """
    cells = [
        (schedule, label, routing, config.replace(routing=routing), backend)
        for label, config in configs.items()
        for routing in routings
    ]
    return _execute_cells(_run_cell, cells, parallel)


@dataclass(frozen=True)
class CollectiveSweepEntry:
    """Result of one (topology, algorithm, size) cell of a collective sweep.

    Attributes
    ----------
    topology / collective / size / num_ranks / backend:
        The cell's coordinates (``size`` in bytes — the collective's total
        buffer, or bytes per pair for ``alltoall``).
    algorithm:
        The algorithm as requested (possibly ``"auto"``).
    resolved:
        The algorithm that actually ran (``algorithm`` unless ``"auto"``).
    autotuner_pick:
        What :func:`repro.collectives.select_algorithm` chooses for this
        cell's (size, topology, groups) — lets reports show where the
        autotuner agrees with the measured winner.
    finish_time_ns / wall_clock_s / messages_delivered / bytes_delivered:
        Simulation outcome of the cell (simulated ns, host seconds,
        delivered message count and payload bytes).
    """

    topology: str
    collective: str
    algorithm: str
    resolved: str
    autotuner_pick: str
    size: int
    num_ranks: int
    backend: str
    finish_time_ns: int
    wall_clock_s: float
    messages_delivered: int
    bytes_delivered: int

    @property
    def finish_time_us(self) -> float:
        """Finish time in microseconds."""
        return self.finish_time_ns / 1e3


def _run_collective_cell(args) -> CollectiveSweepEntry:
    """Simulate one collective cell (module-level so workers can pickle it)."""
    from repro.collectives import (
        build_collective_schedule,
        groups_from_topology,
        select_algorithm,
    )
    from repro.network.topology import build_topology

    collective, algorithm, label, config, size, num_ranks, backend = args
    topology = build_topology(config, num_ranks)
    groups = groups_from_topology(range(num_ranks), topology)
    choice = select_algorithm(
        collective, size, num_ranks,
        params=config.loggops, topology=topology, groups=groups,
    )
    resolved = choice.name if algorithm == "auto" else algorithm
    schedule = build_collective_schedule(
        collective, resolved, num_ranks, size, groups=groups,
        name=f"{collective}-{resolved}-{label}-{size}",
    )
    result = simulate(schedule, backend=backend, config=config)
    return CollectiveSweepEntry(
        topology=label,
        collective=collective,
        algorithm=algorithm,
        resolved=resolved,
        autotuner_pick=choice.name,
        size=size,
        num_ranks=num_ranks,
        backend=result.backend,
        finish_time_ns=result.finish_time_ns,
        wall_clock_s=result.wall_clock_s,
        messages_delivered=result.stats.messages_delivered,
        bytes_delivered=result.stats.bytes_delivered,
    )


def collective_sweep(
    configs: Dict[str, SimulationConfig],
    num_ranks: int,
    sizes: Sequence[int] = (16384, 262144, 4194304),
    algorithms: Sequence[str] = ("ring", "recursive_halving_doubling", "hier_rs"),
    collective: str = "allreduce",
    backend: str = "htsim",
    parallel: Optional[int] = None,
) -> List[CollectiveSweepEntry]:
    """Simulate ``collective`` for every (topology, algorithm, size) cell.

    Every cell emits a standalone schedule of the collective via
    :func:`repro.collectives.build_collective_schedule` — hierarchical
    algorithms use the topology's locality groups under the packed
    placement (rank ``r`` on host ``r``) — and simulates it on ``backend``.

    Parameters
    ----------
    configs:
        Mapping of topology label to :class:`SimulationConfig` (see
        :func:`default_topology_configs`).
    num_ranks:
        Communicator size; every config's topology must fit it.
    sizes:
        Message sizes in bytes (total buffer; per-pair for ``alltoall``).
    algorithms:
        Registry algorithm names for ``collective``; ``"auto"`` runs
        whatever the LogGOPS autotuner picks for each cell.  Unknown names
        raise :class:`ValueError` before any cell runs.
    collective:
        Collective kind (``"allreduce"``, ``"allgather"``, ...).
    backend / parallel:
        As for :func:`topology_routing_sweep`; cells run on the shared
        :func:`_execute_cells` executor (grid order — configs x algorithms
        x sizes — with per-cell deterministic inputs).
    """
    import dataclasses

    from repro.collectives import get_algorithm

    if num_ranks <= 1:
        raise ValueError("collective sweeps need at least 2 ranks")
    for name in algorithms:
        if name != "auto":
            get_algorithm(collective, name)  # validate early, raises ValueError

    # resolve "auto" up front (same derivation the cell performs) so an
    # auto cell that lands on an algorithm already in the grid reuses that
    # cell's simulation instead of re-running an identical schedule
    def _resolve(label, config, size):
        from repro.collectives import groups_from_topology, select_algorithm
        from repro.network.topology import build_topology

        topology = build_topology(config, num_ranks)
        groups = groups_from_topology(range(num_ranks), topology)
        return select_algorithm(
            collective, size, num_ranks,
            params=config.loggops, topology=topology, groups=groups,
        ).name

    grid = []  # (requested algorithm, unique-cell key) in grid order
    unique: Dict[Tuple[str, str, int], Tuple] = {}
    for label, config in configs.items():
        for algorithm in algorithms:
            for size in sizes:
                size = int(size)
                resolved = (
                    _resolve(label, config, size) if algorithm == "auto" else algorithm
                )
                key = (label, resolved, size)
                grid.append((algorithm, key))
                unique.setdefault(
                    key,
                    (collective, resolved, label, config, size, num_ranks, backend),
                )
    results = _execute_cells(_run_collective_cell, list(unique.values()), parallel)
    by_key = dict(zip(unique.keys(), results))
    return [
        dataclasses.replace(by_key[key], algorithm=algorithm)
        for algorithm, key in grid
    ]


@dataclass(frozen=True)
class InferenceSweepEntry:
    """Serving metrics of one (topology, offered-rate) inference cell."""

    topology: str
    backend: str
    process: str
    rate_rps: float
    offered_rps: float
    requests: int
    good_requests: int
    throughput_rps: float
    goodput_rps: float
    ttft_p50_ns: float
    ttft_p99_ns: float
    ttft_p999_ns: float
    tpot_p50_ns: float
    tpot_p99_ns: float
    mean_batch: float
    finish_time_ns: int
    wall_clock_s: float

    @property
    def ttft_p999_ms(self) -> float:
        return self.ttft_p999_ns / 1e6


def _run_inference_cell(args) -> InferenceSweepEntry:
    """Simulate one inference cell (module-level so workers can pickle it)."""
    from repro.apps.inference import build_inference_workload
    from repro.measurement.serving import compute_serving_metrics

    (
        label,
        config,
        backend,
        num_requests,
        rate,
        process,
        tenants,
        cluster,
        seed,
        slo,
        process_kwargs,
    ) = args
    plan = build_inference_workload(
        num_requests=num_requests,
        rate_rps=rate,
        process=process,
        tenants=tenants,
        cluster=cluster,
        seed=seed,
        **process_kwargs,
    )
    result = simulate(
        plan.schedule, backend=backend, config=config, op_groups=plan.op_groups
    )
    metrics = compute_serving_metrics(plan, result, slo=slo)
    return InferenceSweepEntry(
        topology=label,
        backend=result.backend,
        process=process,
        rate_rps=rate,
        offered_rps=metrics.offered_rps,
        requests=metrics.num_requests,
        good_requests=metrics.good_requests,
        throughput_rps=metrics.throughput_rps,
        goodput_rps=metrics.goodput_rps,
        ttft_p50_ns=metrics.ttft_percentiles_ns["p50"],
        ttft_p99_ns=metrics.ttft_percentiles_ns["p99"],
        ttft_p999_ns=metrics.ttft_percentiles_ns["p999"],
        tpot_p50_ns=metrics.tpot_percentiles_ns["p50"],
        tpot_p99_ns=metrics.tpot_percentiles_ns["p99"],
        mean_batch=metrics.batch_occupancy["mean_batch"],
        finish_time_ns=result.finish_time_ns,
        wall_clock_s=result.wall_clock_s,
    )


def inference_sweep(
    rates: Sequence[float],
    configs: Optional[Dict[str, SimulationConfig]] = None,
    backend: str = "lgs",
    num_requests: int = 64,
    process: str = "poisson",
    tenants=None,
    cluster=None,
    seed: int = 0,
    slo=None,
    parallel: Optional[int] = None,
    **process_kwargs,
) -> List[InferenceSweepEntry]:
    """Run the serving workload across a (topology config) x offered-rate grid.

    Every cell generates an open-loop serving workload at one offered rate
    via :func:`repro.apps.inference.build_inference_workload` (with a fixed
    ``seed``, so the *same request population* arrives faster or slower as
    the rate changes), simulates it with per-request op groups, and folds
    the group finish times into an :class:`InferenceSweepEntry` through
    :func:`repro.measurement.serving.compute_serving_metrics`.

    Parameters
    ----------
    rates:
        Offered request rates (requests/s), one cell group per rate.
    configs:
        Mapping of topology label to :class:`SimulationConfig`; defaults to
        a single ``{"fat_tree": SimulationConfig()}``.
    backend / parallel:
        As for :func:`topology_routing_sweep`; cells run on the shared
        :func:`_execute_cells` executor (grid order — configs x rates —
        with per-cell deterministic inputs).
    num_requests / process / tenants / cluster / seed / process_kwargs:
        Forwarded to :func:`~repro.apps.inference.build_inference_workload`.
    slo:
        Optional :class:`~repro.measurement.serving.SloSpec`; ``None`` uses
        the default TTFT deadline.
    """
    if not rates:
        raise ValueError("need at least one offered rate")
    if configs is None:
        configs = {"fat_tree": SimulationConfig()}
    cells = [
        (
            label,
            config,
            backend,
            num_requests,
            float(rate),
            process,
            tenants,
            cluster,
            seed,
            slo,
            process_kwargs,
        )
        for label, config in configs.items()
        for rate in rates
    ]
    return _execute_cells(_run_inference_cell, cells, parallel)


@dataclass(frozen=True)
class ResilienceEntry:
    """Result of one (topology, routing, control-plane, failure-rate) cell."""

    topology: str
    routing: str
    backend: str
    failure_rate: float
    failed_links: int
    finish_time_ns: int
    wall_clock_s: float
    messages_delivered: int
    packets_dropped: int
    packets_rerouted: int
    packets_lost_to_faults: int
    #: Finish time of the healthy (rate-0) cell of the same
    #: (topology, routing, control_plane) group; the denominator of
    #: :attr:`slowdown`.
    baseline_finish_ns: int = 0
    #: Convergence model of the cell (see repro.network.control_plane);
    #: "oracle" keeps the legacy instantaneous behaviour.
    control_plane: str = "oracle"
    #: Worst per-event convergence window of the cell (0 under oracle, and
    #: in static-only cells where no timed event fires).
    time_to_recover_ns: int = 0
    #: Packets lost into black holes during convergence (packet backend,
    #: dv/ls with timed events only).
    packets_blackholed: int = 0

    @property
    def slowdown(self) -> float:
        """Runtime over the healthy cell's runtime (>1 = fault degradation)."""
        if not self.baseline_finish_ns:
            return float("nan")
        return self.finish_time_ns / self.baseline_finish_ns

    @property
    def finish_time_ms(self) -> float:
        return self.finish_time_ns / 1e6


def _run_resilience_cell(args) -> ResilienceEntry:
    """Simulate one resilience cell (module-level so workers can pickle it)."""
    from repro.network.faults import FaultEvent, FaultSchedule, LINK_DOWN, random_failed_link_ids
    from repro.network.topology import build_topology

    schedule, label, routing, config, backend, rate, seed, failed, control_plane, fail_time_ns = args
    if fail_time_ns is None:
        faults = FaultSchedule(link_failure_rate=rate, failure_seed=seed)
    else:
        # timed mode: the same nested cable draw, but the links die at
        # fail_time_ns instead of time 0 — so dv/ls cells expose a real
        # convergence window (TTR, blackholes) rather than booting converged
        ids = random_failed_link_ids(
            build_topology(config, schedule.num_ranks), rate, seed
        )
        faults = FaultSchedule(
            events=tuple(FaultEvent(fail_time_ns, LINK_DOWN, i) for i in ids)
        )
    cell_config = config.replace(
        routing=routing, faults=faults, control_plane=control_plane
    )
    result = simulate(schedule, backend=backend, config=cell_config)
    return ResilienceEntry(
        topology=label,
        routing=routing,
        backend=result.backend,
        failure_rate=rate,
        failed_links=failed,
        finish_time_ns=result.finish_time_ns,
        wall_clock_s=result.wall_clock_s,
        messages_delivered=result.stats.messages_delivered,
        packets_dropped=result.stats.packets_dropped,
        packets_rerouted=result.stats.packets_rerouted,
        packets_lost_to_faults=result.stats.packets_lost_to_faults,
        control_plane=control_plane,
        time_to_recover_ns=result.stats.time_to_recover_ns,
        packets_blackholed=result.stats.packets_blackholed,
    )


def resilience_sweep(
    schedule: GoalSchedule,
    configs: Dict[str, SimulationConfig],
    failure_rates: Sequence[float] = (0.0, 0.1, 0.2),
    routings: Sequence[str] = ("minimal",),
    backend: str = "htsim",
    failure_seed: int = 0,
    parallel: Optional[int] = None,
    control_planes: Sequence[str] = ("oracle",),
    fail_time_ns: Optional[int] = None,
) -> List[ResilienceEntry]:
    """Simulate ``schedule`` for every (topology config) x routing x rate cell.

    Every cell runs with a :class:`~repro.network.faults.FaultSchedule`
    failing ``rate`` of the fabric's switch-to-switch cables from time 0,
    drawn with ``failure_seed``.  Draws are nested across rates (same seed),
    so within one (topology, routing) group a higher rate always fails a
    superset of the lower rate's cables.  Each entry carries the finish time
    of its group's *healthy* (rate 0) cell as the slowdown baseline; a 0.0
    rate is added to the grid when ``failure_rates`` omits it, so slowdowns
    always measure degradation against an intact fabric.

    Parameters mirror :func:`topology_routing_sweep`; cells run on the
    shared :func:`_execute_cells` executor (grid order, per-cell
    deterministic inputs).  Cells whose failure draw partitions a
    communicating pair raise
    :class:`~repro.network.faults.NetworkPartitionError`, from a worker as
    well — pick rates that leave the fabric connected, or catch the error
    per scenario.

    ``control_planes`` adds a convergence-model axis (see
    :mod:`repro.network.control_plane`): every (topology, routing, rate)
    cell runs once per protocol, and entries carry the per-cell
    ``time_to_recover_ns`` and ``packets_blackholed`` columns.  With the
    default ``("oracle",)`` the grid and every result are exactly the
    pre-control-plane sweep.  ``fail_time_ns`` switches the fault model
    from static (cables down from time 0 — convergence-free by definition,
    the views boot converged) to timed: the same nested cable draw dies at
    ``fail_time_ns`` mid-run, which is what gives dv/ls cells a non-zero
    convergence window.
    """
    from repro.network.control_plane import CONTROL_PLANES
    from repro.network.faults import random_failed_link_ids
    from repro.network.topology import build_topology

    if not failure_rates:
        raise ValueError("need at least one failure rate")
    if not control_planes:
        raise ValueError("need at least one control plane")
    for cp in control_planes:
        if cp not in CONTROL_PLANES:
            raise ValueError(
                f"unknown control plane {cp!r} "
                f"(registered: {', '.join(sorted(CONTROL_PLANES))})"
            )
    if fail_time_ns is not None and fail_time_ns < 0:
        raise ValueError("fail_time_ns must be non-negative")
    rates = sorted({0.0} | {float(r) for r in failure_rates})
    # failed-link counts depend only on (topology config, rate, seed):
    # resolve them once per (label, rate) instead of once per cell
    failed_counts = {
        (label, rate): len(
            random_failed_link_ids(
                build_topology(config, schedule.num_ranks), rate, failure_seed
            )
        )
        for label, config in configs.items()
        for rate in rates
    }
    cells = [
        (
            schedule,
            label,
            routing,
            config,
            backend,
            rate,
            failure_seed,
            failed_counts[(label, rate)],
            control_plane,
            fail_time_ns,
        )
        for label, config in configs.items()
        for routing in routings
        for control_plane in control_planes
        for rate in rates
    ]
    entries: List[ResilienceEntry] = _execute_cells(_run_resilience_cell, cells, parallel)
    baselines = {
        (e.topology, e.routing, e.control_plane): e.finish_time_ns
        for e in entries
        if e.failure_rate == 0.0
    }
    import dataclasses

    return [
        dataclasses.replace(
            e, baseline_finish_ns=baselines[(e.topology, e.routing, e.control_plane)]
        )
        for e in entries
    ]


@dataclass(frozen=True)
class InterferenceEntry:
    """Per-job result of one (topology config, placement strategy) cell."""

    topology: str
    strategy: str
    backend: str
    job: str
    arrival_ns: int
    finish_time_ns: int
    runtime_ns: int
    isolated_runtime_ns: int
    messages_delivered: int
    bytes_delivered: int
    contended_link_count: int

    @property
    def slowdown(self) -> float:
        """Co-tenant runtime over isolated runtime (>1 = interference)."""
        if not self.isolated_runtime_ns:
            return float("nan")
        return self.runtime_ns / self.isolated_runtime_ns

    @property
    def runtime_ms(self) -> float:
        return self.runtime_ns / 1e6


def _run_interference_cell(args) -> List[InterferenceEntry]:
    """Simulate one (config, strategy) cell of an interference sweep."""
    from repro.cluster import run_cotenant
    from repro.placement import filter_strategy_kwargs

    jobs, label, strategy, config, backend, cluster_nodes, strategy_kwargs = args
    kwargs = filter_strategy_kwargs(strategy, strategy_kwargs)
    res = run_cotenant(
        jobs,
        cluster_nodes=cluster_nodes,
        strategy=strategy,
        backend=backend,
        config=config,
        **kwargs,
    )
    contended = res.contended_links()
    entries = []
    for out in res.outcomes:
        entries.append(
            InterferenceEntry(
                topology=label,
                strategy=strategy,
                backend=backend,
                job=out.name,
                arrival_ns=out.arrival_ns,
                finish_time_ns=out.finish_ns,
                runtime_ns=out.runtime_ns,
                isolated_runtime_ns=out.isolated_runtime_ns or 0,
                messages_delivered=out.messages_delivered,
                bytes_delivered=out.bytes_delivered,
                contended_link_count=sum(
                    1 for links in contended.values() if out.name in links
                ),
            )
        )
    return entries


def interference_sweep(
    jobs: Sequence,
    cluster_nodes: int,
    strategies: Sequence[str] = ("packed", "fragmented", "random"),
    configs: Optional[Dict[str, SimulationConfig]] = None,
    backend: str = "htsim",
    parallel: Optional[int] = None,
    **strategy_kwargs,
) -> List[InterferenceEntry]:
    """Run a jobs x placement x topology interference grid.

    Every cell simulates all ``jobs`` *concurrently* on one fabric through
    :func:`repro.cluster.run_cotenant` (including each job's isolated
    baseline under the same placement, so slowdowns are comparable across
    strategies), and yields one :class:`InterferenceEntry` per job.  Entries
    come back flattened in grid order: configs (insertion order) x
    strategies x jobs.

    Parameters
    ----------
    jobs:
        :class:`repro.cluster.ClusterJob` records (schedule + arrival time).
    cluster_nodes:
        Cluster size shared by every cell.
    strategies:
        Placement strategy names to compare.
    configs:
        Mapping of label to :class:`SimulationConfig` (one cell group per
        entry); defaults to a single ``{"fat_tree": SimulationConfig()}``.
    backend / parallel:
        As for :func:`topology_routing_sweep`.
    strategy_kwargs:
        Extra placement-strategy arguments applied to every cell (``seed``,
        ``group_size``, ...).
    """
    if configs is None:
        configs = {"fat_tree": SimulationConfig()}
    jobs = list(jobs)
    cells = [
        (jobs, label, strategy, config, backend, cluster_nodes, strategy_kwargs)
        for label, config in configs.items()
        for strategy in strategies
    ]
    nested = _execute_cells(_run_interference_cell, cells, parallel)
    return [entry for cell_entries in nested for entry in cell_entries]
