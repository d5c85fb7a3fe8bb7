"""Sweep APIs: topology x routing, collectives, co-tenancy and resilience grids.

Every sweep returns one :class:`SweepRecord` per cell (per job, for the
co-tenancy grid): the cell's coordinates (``key``), what its run simulated
(``digest``, :meth:`~repro.network.backend.SimulationResult.digest`) and
what the sweep derived from the run (``values``).  ``record.name`` reads
the three in that order.  Host time is never in a record; a single run's
is ``result.wall_clock_s``.

:func:`topology_routing_sweep` runs one GOAL schedule across a grid of
topologies and routing strategies — the programmatic form of the paper's
"same workload, different interconnect" experiments, extended over the
pluggable routing subsystem.

:func:`interference_sweep` runs a *set of concurrent jobs* across a grid of
placement strategies and topology configurations through the co-tenancy
engine (:mod:`repro.cluster`), and reports per-job runtime, slowdown versus
an isolated run, and contention shares — the generalised form of the
paper's Fig. 13 placement case study.

:func:`resilience_sweep` runs one schedule across a workload x topology x
link-failure-rate grid (see :mod:`repro.network.faults`) and reports each
cell's slowdown against the healthy cell of the same (topology, routing) —
the degradation curves behind ``benchmarks/test_fig_resilience.py`` and
``atlahs faults``.  Random failure draws are nested across rates for a
fixed seed, so the curves are monotone in the failed set, not just in
expectation.

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
    records = topology_routing_sweep(schedule, configs,
                                     routings=("minimal", "valiant", "adaptive"),
                                     backend="htsim", parallel=4)
    for r in records:
        print(r.topology, r.routing, r.finish_time_ns / 1e6, r.packets_dropped)

Parallel execution
------------------
``parallel=N`` runs the grid's cells on ``N`` worker processes
(:mod:`repro.workers`, shared with the sharded packet engine), which get
the cell list once and are handed cell indices.  Results are *identical*
to the serial engine: every cell's configuration — including its seed —
is derived deterministically before any worker starts, each simulation
owns its private RNG seeded only from that configuration, and records are
returned in grid order regardless of which worker finished first.
``tests/differential.py``'s ``sweep/*`` rows assert the parallel/serial
equality of whole records for all five sweeps.
Failures are loud, never a serial rerun: a cell's exception keeps its
type, a dead worker is one :class:`~repro.workers.WorkerError` naming its
cell, and where processes cannot start the error says ``parallel=None``.

``examples/topology_comparison.py`` demonstrates the API on a small LLM
training workload; ``benchmarks/test_topology_routing_sweep.py`` uses it for
the oversubscription comparison, and
``benchmarks/test_cotenancy_interference.py`` drives the interference grid.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import workers
from repro.goal.schedule import GoalSchedule
from repro.network.config import SimulationConfig
from repro.scheduler import simulate


@dataclass(frozen=True)
class SweepRecord:
    """One cell of a sweep (one job of a co-tenancy cell), read by name.

    ``key`` holds the cell's coordinates (``topology``, ``routing``,
    ``backend``, ``strategy``, ``job``, ``size``, ...), ``digest`` the run's
    :meth:`~repro.network.backend.SimulationResult.digest`, and ``values``
    what the sweep derived from the run (``slowdown``, ``autotuner_pick``,
    the serving metrics, ...).  ``record.name`` looks in ``key``, then
    ``values``, then ``digest``, so a job's own ``finish_time_ns`` shadows
    its co-tenant run's.
    """

    key: Dict[str, Any]
    digest: Dict[str, Any]
    values: Dict[str, Any]

    def __getattr__(self, name: str):
        # only reached for names that are not attributes; dunders and the
        # fields themselves (absent while unpickling) must not recurse
        if not name.startswith("__") and name not in ("key", "digest", "values"):
            for part in (self.key, self.values, self.digest):
                if name in part:
                    return part[name]
        raise AttributeError(f"{type(self).__name__} has no {name!r}")


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


def _run_cell(cell: Dict) -> SweepRecord:
    """Simulate ``cell["schedule"]`` on ``cell["config"]`` (module-level so
    worker processes can pickle it)."""
    result = simulate(cell["schedule"], backend=cell["key"]["backend"], config=cell["config"])
    return SweepRecord(cell["key"], result.digest(), cell["values"])


def topology_routing_sweep(
    schedule: GoalSchedule,
    configs: Dict[str, SimulationConfig],
    routings: Sequence[str] = ("minimal", "valiant", "adaptive"),
    backend: str = "htsim",
    parallel: Optional[int] = None,
) -> List[SweepRecord]:
    """Simulate ``schedule`` for every (topology config) x (routing) cell.

    Records are keyed by ``topology``, ``routing`` and ``backend``; the
    congestion signals (``packets_dropped``, ``max_queue_bytes``, ...) are
    the digest's.

    Parameters
    ----------
    schedule:
        The GOAL program to replay in every cell.
    configs:
        Mapping of topology label to the :class:`SimulationConfig` to use
        (see :func:`default_topology_configs`); the label is the record's
        ``topology``.
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
        parallel engine returns records identical to the serial one, in the
        same grid order.
    """
    cells = [
        {"key": {"topology": label, "routing": routing, "backend": backend}, "schedule": schedule,
         "config": config.replace(routing=routing), "values": {}}
        for label, config in configs.items()
        for routing in routings
    ]
    return _execute_cells(_run_cell, cells, parallel)


def _autotuner_pick(collective: str, config: SimulationConfig, size: int, num_ranks: int):
    """What the LogGOPS autotuner picks for one collective cell, and the
    cell's locality groups (ranks packed onto hosts in order)."""
    from repro.collectives import groups_from_topology, select_algorithm
    from repro.network.topology import build_topology

    topology = build_topology(config, num_ranks)
    groups = groups_from_topology(range(num_ranks), topology)
    choice = select_algorithm(
        collective, size, num_ranks,
        params=config.loggops, topology=topology, groups=groups,
    )
    return choice.name, groups


def _run_collective_cell(cell: Dict) -> SweepRecord:
    """Build and simulate one collective cell (module-level so workers can pickle it)."""
    from repro.collectives import build_collective_schedule

    key, config = cell["key"], cell["config"]
    collective, algorithm, size = key["collective"], key["algorithm"], key["size"]
    pick, groups = _autotuner_pick(collective, config, size, key["num_ranks"])
    schedule = build_collective_schedule(
        collective, algorithm, key["num_ranks"], size, groups=groups,
        name=f"{collective}-{algorithm}-{key['topology']}-{size}",
    )
    result = simulate(schedule, backend=key["backend"], config=config)
    return SweepRecord(key, result.digest(), {"resolved": algorithm, "autotuner_pick": pick})


def collective_sweep(
    configs: Dict[str, SimulationConfig],
    num_ranks: int,
    sizes: Sequence[int] = (16384, 262144, 4194304),
    algorithms: Sequence[str] = ("ring", "recursive_halving_doubling", "hier_rs"),
    collective: str = "allreduce",
    backend: str = "htsim",
    parallel: Optional[int] = None,
) -> List[SweepRecord]:
    """Simulate ``collective`` for every (topology, algorithm, size) cell.

    Every cell emits a standalone schedule of the collective via
    :func:`repro.collectives.build_collective_schedule` — hierarchical
    algorithms use the topology's locality groups under the packed
    placement (rank ``r`` on host ``r``) — and simulates it on ``backend``.
    Records are keyed by ``topology``, ``collective``, ``algorithm`` (as
    requested, possibly ``"auto"``), ``size`` (bytes), ``num_ranks`` and
    ``backend``; their values are ``resolved`` (the algorithm that ran) and
    ``autotuner_pick`` (what :func:`repro.collectives.select_algorithm`
    chooses for the cell).

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
    from repro.collectives import get_algorithm

    if num_ranks <= 1:
        raise ValueError("collective sweeps need at least 2 ranks")
    if not sizes:
        raise ValueError("need at least one message size")
    for name in algorithms:
        if name != "auto":
            get_algorithm(collective, name)  # validate early, raises ValueError

    # resolve "auto" up front (same derivation the cell performs) so an
    # auto cell that lands on an algorithm already in the grid reuses that
    # cell's simulation instead of re-running an identical schedule
    grid = []  # (requested algorithm, unique-cell key) in grid order
    unique: Dict[tuple, Dict] = {}
    for label, config in configs.items():
        for algorithm in algorithms:
            for size in map(int, sizes):
                auto = algorithm == "auto"
                resolved = _autotuner_pick(collective, config, size, num_ranks)[0] if auto else algorithm
                grid.append((algorithm, (label, resolved, size)))
                unique.setdefault((label, resolved, size), {
                    "key": dict(topology=label, collective=collective, algorithm=resolved,
                                size=size, num_ranks=num_ranks, backend=backend),
                    "config": config,
                })
    records = dict(zip(unique, _execute_cells(_run_collective_cell, list(unique.values()), parallel)))
    return [
        dataclasses.replace(records[cell], key={**records[cell].key, "algorithm": algorithm})
        for algorithm, cell in grid
    ]


def _run_inference_cell(cell: Dict) -> SweepRecord:
    """Simulate one inference cell (module-level so workers can pickle it)."""
    from repro.apps.inference import build_inference_workload
    from repro.measurement.serving import compute_serving_metrics

    key = cell["key"]
    plan = build_inference_workload(rate_rps=key["rate_rps"], process=key["process"], **cell["workload"])
    result = simulate(
        plan.schedule, backend=key["backend"], config=cell["config"], op_groups=plan.op_groups
    )
    metrics = compute_serving_metrics(plan, result, slo=cell["slo"])
    ttft, tpot = metrics.ttft_percentiles_ns, metrics.tpot_percentiles_ns
    return SweepRecord(key, result.digest(), {
        "offered_rps": metrics.offered_rps, "requests": metrics.num_requests,
        "good_requests": metrics.good_requests, "throughput_rps": metrics.throughput_rps,
        "goodput_rps": metrics.goodput_rps,
        "ttft_p50_ns": ttft["p50"], "ttft_p99_ns": ttft["p99"], "ttft_p999_ns": ttft["p999"],
        "tpot_p50_ns": tpot["p50"], "tpot_p99_ns": tpot["p99"],
        "mean_batch": metrics.batch_occupancy["mean_batch"],
    })


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
) -> List[SweepRecord]:
    """Run the serving workload across a (topology config) x offered-rate grid.

    Every cell generates an open-loop serving workload at one offered rate
    via :func:`repro.apps.inference.build_inference_workload` (with a fixed
    ``seed``, so the *same request population* arrives faster or slower as
    the rate changes), simulates it with per-request op groups, and folds
    the group finish times into the record's values through
    :func:`repro.measurement.serving.compute_serving_metrics`: ``offered_rps``,
    ``requests``, ``good_requests``, ``throughput_rps``, ``goodput_rps``,
    ``ttft_p{50,99,999}_ns``, ``tpot_p{50,99}_ns`` and ``mean_batch``.
    Records are keyed by ``topology``, ``backend``, ``process`` and
    ``rate_rps``.

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
    workload = dict(
        num_requests=num_requests, tenants=tenants, cluster=cluster, seed=seed, **process_kwargs
    )
    cells = [
        {"key": {"topology": label, "backend": backend, "process": process, "rate_rps": float(rate)},
         "config": config, "workload": workload, "slo": slo}
        for label, config in configs.items()
        for rate in rates
    ]
    return _execute_cells(_run_inference_cell, cells, parallel)


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
) -> List[SweepRecord]:
    """Simulate ``schedule`` for every (topology config) x routing x rate cell.

    Every cell runs with a :class:`~repro.network.faults.FaultSchedule`
    failing ``rate`` of the fabric's switch-to-switch cables from time 0,
    drawn with ``failure_seed``.  Draws are nested across rates (same seed),
    so within one (topology, routing) group a higher rate always fails a
    superset of the lower rate's cables.  Records are keyed by
    ``topology``, ``routing``, ``backend``, ``control_plane`` and
    ``failure_rate``; their values are ``failed_links`` (cables' links
    down), ``baseline_finish_ns`` (the finish time of the group's *healthy*,
    rate 0, cell) and ``slowdown`` (finish time over that baseline, NaN
    when the baseline is 0).  A 0.0 rate is added to the grid when
    ``failure_rates`` omits it, so slowdowns always measure degradation
    against an intact fabric.

    Parameters mirror :func:`topology_routing_sweep`; cells run on the
    shared :func:`_execute_cells` executor (grid order, per-cell
    deterministic inputs).  Cells whose failure draw partitions a
    communicating pair raise
    :class:`~repro.network.faults.NetworkPartitionError`, from a worker as
    well — pick rates that leave the fabric connected, or catch the error
    per scenario.

    ``control_planes`` adds a convergence-model axis (see
    :mod:`repro.network.control_plane`): every (topology, routing, rate)
    cell runs once per protocol, and the digest carries the per-cell
    ``time_to_recover_ns`` and ``packets_blackholed``.  With the default
    ``("oracle",)`` the grid and every result are exactly the
    pre-control-plane sweep.  ``fail_time_ns`` switches the fault model
    from static (cables down from time 0 — convergence-free by definition,
    the views boot converged) to timed: the same nested cable draw dies at
    ``fail_time_ns`` mid-run, which is what gives dv/ls cells a non-zero
    convergence window.
    """
    from repro.network.control_plane import control_plane_names
    from repro.network.faults import FaultEvent, FaultSchedule, LINK_DOWN, random_failed_link_ids
    from repro.network.topology import build_topology

    if not failure_rates:
        raise ValueError("need at least one failure rate")
    for rate in failure_rates:
        # the cells' own rate rule, applied before any rate is drawn from
        FaultSchedule(link_failure_rate=rate)
    if not control_planes:
        raise ValueError("need at least one control plane")
    for cp in control_planes:
        if cp not in control_plane_names():
            raise ValueError(
                f"unknown control plane {cp!r} "
                f"(registered: {', '.join(control_plane_names())})"
            )
    if fail_time_ns is not None and fail_time_ns < 0:
        raise ValueError(f"fail_time_ns must be non-negative, got {fail_time_ns}")
    rates = sorted({0.0} | {float(r) for r in failure_rates})
    # the failed links depend only on (topology config, rate, seed): draw
    # them once per (label, rate); in timed mode they die at fail_time_ns,
    # so dv/ls cells expose a real convergence window (TTR, blackholes)
    # rather than booting converged
    drawn = {}  # (label, rate) -> (failed link count, fault schedule)
    for label, config in configs.items():
        topology = build_topology(config, schedule.num_ranks)
        for rate in rates:
            ids = random_failed_link_ids(topology, rate, failure_seed)
            drawn[label, rate] = len(ids), (
                FaultSchedule(link_failure_rate=rate, failure_seed=failure_seed)
                if fail_time_ns is None
                else FaultSchedule(events=tuple(FaultEvent(fail_time_ns, LINK_DOWN, i) for i in ids))
            )
    cells = [
        {"key": {"topology": label, "routing": routing, "backend": backend,
                 "control_plane": control_plane, "failure_rate": rate},
         "schedule": schedule,
         "config": config.replace(
             routing=routing, faults=drawn[label, rate][1], control_plane=control_plane
         ),
         "values": {"failed_links": drawn[label, rate][0]}}
        for label, config in configs.items()
        for routing in routings
        for control_plane in control_planes
        for rate in rates
    ]
    records = _execute_cells(_run_cell, cells, parallel)
    group = lambda r: (r.topology, r.routing, r.control_plane)  # noqa: E731
    baselines = {group(r): r.finish_time_ns for r in records if r.failure_rate == 0.0}
    return [
        dataclasses.replace(r, values={
            **r.values,
            "baseline_finish_ns": baselines[group(r)],
            "slowdown": r.finish_time_ns / baselines[group(r)] if baselines[group(r)] else math.nan,
        })
        for r in records
    ]


def _run_interference_cell(cell: Dict) -> List[SweepRecord]:
    """Simulate one (config, strategy) cell of an interference sweep: one
    record per job, all sharing the co-tenant run's digest."""
    from repro.cluster import run_cotenant

    key = cell["key"]
    res = run_cotenant(
        cell["jobs"],
        cluster_nodes=cell["cluster_nodes"],
        strategy=key["strategy"],
        backend=key["backend"],
        config=cell["config"],
        **cell["strategy_kwargs"],
    )
    digest, contended = res.result.digest(), res.contended_links()
    return [
        SweepRecord({**key, "job": out.name}, digest, {
            "arrival_ns": out.arrival_ns, "finish_time_ns": out.finish_ns, "runtime_ns": out.runtime_ns,
            "isolated_runtime_ns": out.isolated_runtime_ns or 0,
            "messages_delivered": out.messages_delivered, "bytes_delivered": out.bytes_delivered,
            "contended_link_count": sum(1 for links in contended.values() if out.name in links),
            "slowdown": out.slowdown if out.isolated_runtime_ns else math.nan,
        })
        for out in res.outcomes
    ]


def interference_sweep(
    jobs: Sequence,
    cluster_nodes: int,
    strategies: Sequence[str] = ("packed", "fragmented", "random"),
    configs: Optional[Dict[str, SimulationConfig]] = None,
    backend: str = "htsim",
    parallel: Optional[int] = None,
    **strategy_kwargs,
) -> List[SweepRecord]:
    """Run a jobs x placement x topology interference grid.

    Every cell simulates all ``jobs`` *concurrently* on one fabric through
    :func:`repro.cluster.run_cotenant` (including each job's isolated
    baseline under the same placement, so slowdowns are comparable across
    strategies), and yields one record per job, keyed by ``topology``,
    ``strategy``, ``backend`` and ``job``.  Its values are the job's own
    ``arrival_ns``, ``finish_time_ns``, ``runtime_ns``,
    ``isolated_runtime_ns``, ``messages_delivered``, ``bytes_delivered``,
    ``contended_link_count`` and ``slowdown`` (runtime over isolated
    runtime, NaN without one); they shadow the co-tenant digest's keys of
    the same name.  Records come back flattened in grid order: configs
    (insertion order) x strategies x jobs.

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
        Extra placement-strategy arguments (``seed``, ``group_size``, ...),
        each given to the cells whose strategy takes it.  A keyword no listed
        strategy takes is one ``TypeError``, before any cell runs.
    """
    from repro.placement import filter_strategy_kwargs

    for key in strategy_kwargs:
        if not any(filter_strategy_kwargs(strategy, {key: None}) for strategy in strategies):
            raise TypeError(
                f"interference_sweep: no listed placement strategy "
                f"({', '.join(strategies)}) takes {key!r}"
            )
    if configs is None:
        configs = {"fat_tree": SimulationConfig()}
    jobs = list(jobs)
    cells = [
        {"key": {"topology": label, "strategy": strategy, "backend": backend}, "jobs": jobs,
         "cluster_nodes": cluster_nodes, "config": config,
         "strategy_kwargs": filter_strategy_kwargs(strategy, strategy_kwargs)}
        for label, config in configs.items()
        for strategy in strategies
    ]
    nested = _execute_cells(_run_interference_cell, cells, parallel)
    return [record for cell_records in nested for record in cell_records]
