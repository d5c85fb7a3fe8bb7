"""Command-line interface of the toolchain (``atlahs`` entry point).

Subcommands mirror the main pipelines:

* ``atlahs simulate FILE`` — replay a GOAL file (textual or binary) on a backend,
* ``atlahs hpc APP`` — trace + simulate one of the HPC application models,
* ``atlahs ai MODEL`` — trace + simulate an LLM-training workload,
* ``atlahs storage`` — generate a Financial-like workload and replay it
  against Direct Drive,
* ``atlahs synthetic PATTERN`` — run one of the synthetic microbenchmarks,
* ``atlahs cotenant JOB [JOB ...]`` — run several jobs concurrently on one
  fabric and attribute runtime/slowdown/contention per job (a job is a GOAL
  file or a ``pattern:ranks:size`` synthetic spec),
* ``atlahs faults WORKLOAD`` — replay a workload on a degraded fabric:
  link-failure-rate sweeps or explicit timed link/switch fault scenarios,
* ``atlahs inference`` — sweep an inference-serving workload (open-loop
  arrivals, prefill/decode phases, continuous batching) across offered
  request rates and report goodput plus TTFT/TPOT SLO percentiles,
* ``atlahs collectives`` — list/describe the collective algorithm registry,
  or sweep algorithms x topologies x sizes (``--sweep``; see
  ``docs/collectives.md``),
* ``atlahs topologies`` — list registered topologies and routing strategies,
* ``atlahs bench`` — run the performance suite and track ``BENCH_*.json``
  baselines (see ``docs/performance.md``).

Every simulation subcommand accepts the shared network flags
(``--backend``, ``--topology``, ``--routing``, topology shape parameters,
``--cc``, ``--seed``); ``topologies`` is a pure listing and takes none.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import List, Optional

from repro.apps.ai import MODEL_PRESETS, ParallelismConfig
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.core import Atlahs
from repro.goal import GoalParseError, GoalValidationError, read_goal
from repro.goal.binary import GoalBinaryError
from repro.network.config import SimulationConfig
from repro.network.congestion import congestion_control_names
from repro.network.routing import ROUTING_STRATEGIES, routing_names
from repro.network.topology import TOPOLOGY_DESCRIPTIONS, topology_names
from repro.schedgen import all_to_all, incast, permutation, ring_allreduce_microbenchmark
from repro.schedgen.storage import DirectDriveConfig
from repro.scheduler import SchedulerDeadlockError
from repro.tracers.storage import FinancialWorkloadGenerator
from repro.workers import WorkerError


def _parse_dims(text: str) -> tuple:
    """Parse a comma-separated torus shape like ``"4,4"`` or ``"4,4,2"``."""
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid torus dims {text!r}; expected e.g. 4,4") from None
    if len(dims) not in (2, 3) or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(
            f"torus dims must be 2 or 3 ring lengths, each >= 2 (e.g. 4,4 or 4,4,2); got {text!r}"
        )
    return dims


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    # every default below is the SimulationConfig field default, so the CLI
    # cannot drift from the library (tests/test_core_and_cli.py checks it)
    d = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
    group = parser.add_argument_group("network")
    group.add_argument("--backend", choices=["lgs", "htsim"], default="lgs", help="network backend")
    group.add_argument(
        "--topology", choices=list(topology_names()), default=d["topology"], help="network topology"
    )
    group.add_argument(
        "--routing", choices=list(routing_names()), default=d["routing"], help="routing strategy"
    )
    group.add_argument(
        "--nodes-per-tor", type=int, default=d["nodes_per_tor"], help="fat tree: hosts per ToR"
    )
    group.add_argument(
        "--oversubscription", type=float, default=d["oversubscription"],
        help="fat tree: ToR downlink:uplink ratio",
    )
    group.add_argument(
        "--fattree-planes", type=int, default=d["fattree_planes"],
        help="fat_tree_multiplane: number of drainable core planes",
    )
    group.add_argument(
        "--fattree-rails", type=int, default=d["fattree_rails"],
        help="fat_tree_rail: GPUs (rails) per server",
    )
    group.add_argument(
        "--torus-dims", type=_parse_dims, default=d["torus_dims"], metavar="X,Y[,Z]",
        help="torus: ring length per dimension (e.g. 4,4 or 4,4,2)",
    )
    group.add_argument(
        "--torus-hosts-per-node", type=int, default=d["torus_hosts_per_node"],
        help="torus: hosts per switch",
    )
    group.add_argument(
        "--slimfly-q", type=int, default=d["slimfly_q"],
        help="slim fly: prime q = 1 mod 4 (5, 13, 17, ...)",
    )
    group.add_argument(
        "--slimfly-hosts-per-router", type=int, default=d["slimfly_hosts_per_router"],
        help="slim fly: hosts per router (0 = balanced concentration)",
    )
    group.add_argument(
        "--cc", choices=list(congestion_control_names()), default=d["cc_algorithm"],
        help="congestion control (packet backend)",
    )
    group.add_argument(
        "--route-cache-entries", type=int, default=d["route_cache_entries"],
        help="LRU budget per route-table cache (0 = unbounded; see docs/scaling.md)",
    )
    group.add_argument(
        "--shards", type=int, default=d["shards"],
        help="parallel shards for the packet backend (1 = single-process; "
        "requires --backend htsim; see docs/scaling.md for the "
        "conservative-window engine)",
    )
    group.add_argument(
        "--load-snapshot-ns", type=int, default=d["load_snapshot_ns"],
        help="sharded adaptive routing: barrier load-snapshot cadence in ns "
        "(0 = auto: the topology's minimum link latency)",
    )
    group.add_argument("--seed", type=int, default=d["seed"], help="seed for stochastic choices")


# SimulationConfig field -> the argparse dest of its network flag
_NETWORK_FLAGS = {
    "topology": "topology",
    "routing": "routing",
    "nodes_per_tor": "nodes_per_tor",
    "oversubscription": "oversubscription",
    "fattree_planes": "fattree_planes",
    "fattree_rails": "fattree_rails",
    "route_cache_entries": "route_cache_entries",
    "torus_dims": "torus_dims",
    "torus_hosts_per_node": "torus_hosts_per_node",
    "slimfly_q": "slimfly_q",
    "slimfly_hosts_per_router": "slimfly_hosts_per_router",
    "cc_algorithm": "cc",
    "shards": "shards",
    "load_snapshot_ns": "load_snapshot_ns",
    "seed": "seed",
}


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    if args.shards > 1 and args.backend != "htsim":
        # the analytic LogGOPS backend has no packet events to shard; a
        # silently ignored --shards would misreport single-process runs as
        # parallel ones, so reject the combination up front
        raise SystemExit(
            f"--shards {args.shards} requires the packet backend: pass "
            f"--backend htsim (the {args.backend!r} backend is analytic "
            "and runs single-process)"
        )
    try:
        return SimulationConfig(
            **{field: getattr(args, dest) for field, dest in _NETWORK_FLAGS.items()}
        )
    except ValueError as exc:
        # the config names the field it rejected; name the flag and value
        flags = [
            f"--{dest.replace('_', '-')} {getattr(args, dest)}"
            for field, dest in _NETWORK_FLAGS.items()
            if re.search(rf"\b{field}\b", str(exc))
        ]
        raise SystemExit(f"bad {', '.join(flags) or 'network flags'}: {exc}") from None


def _print_result(name: str, result, extra: Optional[dict] = None) -> None:
    payload = {
        "workload": name,
        "backend": result.backend,
        "simulated_time_s": result.finish_time_s,
        "ops_completed": result.ops_completed,
        "messages": result.stats.messages_delivered,
        "bytes": result.stats.bytes_delivered,
        "packet_drops": result.stats.packets_dropped,
        "wall_clock_s": round(result.wall_clock_s, 3),
    }
    if extra:
        payload.update(extra)
    print(json.dumps(payload, indent=2))


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Replay a GOAL file (textual or binary, whatever its name) on a backend."""
    path = args.goal_file
    try:
        schedule = read_goal(path)
    except OSError as exc:
        raise SystemExit(f"cannot read GOAL file {path!r}: {exc.strerror}") from None
    except (GoalParseError, GoalBinaryError) as exc:
        raise SystemExit(f"{path!r} is not a valid GOAL file: {exc}") from None
    atlahs = Atlahs(_config_from_args(args))
    try:
        result = atlahs.simulate_goal(schedule, backend=args.backend)
    except GoalValidationError as exc:
        shown = "; ".join(exc.errors[:3])
        more = f"; +{len(exc.errors) - 3} more" if len(exc.errors) > 3 else ""
        raise SystemExit(f"{path!r} fails validation: {shown}{more}") from None
    except SchedulerDeadlockError as exc:
        raise SystemExit(f"{path!r}: {exc}") from None
    _print_result(schedule.name, result)
    return 0


def _cmd_hpc(args: argparse.Namespace) -> int:
    """Trace one of the HPC application models and simulate the GOAL schedule."""
    atlahs = Atlahs(_config_from_args(args))
    run = HpcRunConfig(
        num_ranks=args.ranks,
        iterations=args.iterations,
        cells_per_rank=args.cells_per_rank,
        scaling=args.scaling,
    )
    out = atlahs.run_hpc(args.app, run, backend=args.backend)
    _print_result(
        f"{args.app}-{args.ranks}",
        out.result,
        {"trace_bytes": out.trace_bytes, "goal_bytes": out.goal_bytes},
    )
    return 0


def _cmd_ai(args: argparse.Namespace) -> int:
    """Trace an LLM-training workload and simulate the GOAL schedule."""
    atlahs = Atlahs(_config_from_args(args))
    model = MODEL_PRESETS[args.model]().scaled(args.scale)
    par = ParallelismConfig(
        tp=args.tp, pp=args.pp, dp=args.dp, ep=args.ep,
        microbatches=args.microbatches, global_batch=args.batch,
    )
    out = atlahs.run_ai_training(
        model,
        par,
        iterations=args.iterations,
        gpus_per_node=args.gpus_per_node,
        backend=args.backend,
        collective_algorithm=args.collective_algorithm,
    )
    _print_result(
        f"{args.model} ({par.describe()})",
        out.result,
        {"trace_bytes": out.trace_bytes, "goal_bytes": out.goal_bytes, "gpus": par.num_gpus},
    )
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    """Generate a Financial-like workload and replay it against Direct Drive."""
    atlahs = Atlahs(_config_from_args(args))
    gen = FinancialWorkloadGenerator(seed=args.seed)
    trace = gen.generate(args.operations)
    out = atlahs.run_storage(trace, DirectDriveConfig(), backend=args.backend)
    mct = out.result.mct_statistics()
    _print_result(
        f"direct-drive-{args.operations}ops",
        out.result,
        {"mct_mean_us": mct["mean"] / 1e3, "mct_p99_us": mct["p99"] / 1e3, "mct_max_us": mct["max"] / 1e3},
    )
    return 0


def _cmd_synthetic(args: argparse.Namespace) -> int:
    """Run a synthetic microbenchmark (incast, permutation, alltoall, allreduce)."""
    atlahs = Atlahs(_config_from_args(args))
    size = args.message_size
    if args.pattern == "incast":
        schedule = incast(args.ranks, size)
    elif args.pattern == "permutation":
        schedule = permutation(args.ranks, size, seed=args.seed)
    elif args.pattern == "alltoall":
        schedule = all_to_all(args.ranks, size)
    else:
        schedule = ring_allreduce_microbenchmark(args.ranks, size)
    result = atlahs.simulate_goal(schedule, backend=args.backend)
    _print_result(f"{args.pattern}-{args.ranks}", result)
    return 0


def _load_job_schedule(spec: str):
    """Load one co-tenant job: a GOAL file path or a ``pattern:ranks:size`` spec.

    Synthetic specs (``incast:16:65536``, ``alltoall:8:4096``,
    ``permutation:8:1048576``, ``allreduce:8:1048576``) let multi-job runs be
    assembled without trace files on disk.
    """
    import os

    patterns = {
        "incast": incast,
        "permutation": permutation,
        "alltoall": all_to_all,
        "allreduce": ring_allreduce_microbenchmark,
    }
    if not os.path.exists(spec) and spec.count(":") == 2:
        pattern, ranks, size = spec.split(":")
        if pattern not in patterns:
            raise SystemExit(
                f"unknown synthetic pattern {pattern!r} in job spec {spec!r}; "
                f"expected one of {sorted(patterns)}"
            )
        try:
            schedule = patterns[pattern](int(ranks), int(size))
        except ValueError as exc:
            raise SystemExit(f"bad job spec {spec!r}: {exc}") from None
        schedule.name = spec
        return schedule
    try:
        return read_goal(spec)
    except FileNotFoundError:
        raise SystemExit(
            f"job spec {spec!r} is neither an existing GOAL file nor a "
            f"pattern:ranks:size synthetic spec (e.g. alltoall:8:65536)"
        ) from None


def _cmd_cotenant(args: argparse.Namespace) -> int:
    """Run several jobs concurrently on one shared fabric with per-job attribution."""
    from repro.cluster import ClusterJob, run_cotenant
    from repro.placement import PLACEMENT_STRATEGIES, filter_strategy_kwargs

    schedules = [_load_job_schedule(spec) for spec in args.jobs]
    arrivals = [0] * len(schedules)
    if args.arrivals:
        try:
            parts = [int(a) for a in args.arrivals.split(",")]
        except ValueError:
            raise SystemExit(
                f"--arrivals must be comma-separated integers (ns), got {args.arrivals!r}"
            ) from None
        if len(parts) != len(schedules):
            raise SystemExit(
                f"--arrivals lists {len(parts)} times for {len(schedules)} jobs"
            )
        arrivals = parts
    try:
        jobs = [
            ClusterJob(schedule, arrival_ns=arrival)
            for schedule, arrival in zip(schedules, arrivals)
        ]
    except ValueError as exc:
        raise SystemExit(f"bad --arrivals: {exc}") from None

    strategies = [s.strip() for s in args.placement.split(",") if s.strip()]
    unknown = [s for s in strategies if s not in PLACEMENT_STRATEGIES]
    if unknown:
        raise SystemExit(
            f"unknown placement strategies {unknown}; "
            f"registered: {', '.join(sorted(PLACEMENT_STRATEGIES))}"
        )

    config = _config_from_args(args)
    strategy_kwargs = {}
    if args.group_size:
        strategy_kwargs["group_size"] = args.group_size
    strategy_kwargs["seed"] = args.seed
    payload = {
        "workload": f"cotenant-{len(jobs)}job",
        "backend": args.backend,
        "cluster_nodes": args.cluster_nodes or sum(j.num_nodes for j in jobs),
        "strategies": {},
    }
    for strategy in strategies:
        kwargs = filter_strategy_kwargs(strategy, strategy_kwargs)
        res = run_cotenant(
            jobs,
            cluster_nodes=args.cluster_nodes,
            strategy=strategy,
            backend=args.backend,
            config=config,
            baseline=not args.no_baseline,
            shared=args.shared,
            **kwargs,
        )
        contended = res.contended_links()
        top_links = sorted(
            contended.items(), key=lambda kv: -sum(kv[1].values())
        )[:5]
        payload["strategies"][strategy] = {
            "finish_time_ms": res.result.finish_time_ns / 1e6,
            "wall_clock_s": round(res.result.wall_clock_s, 3),
            "contended_links": len(contended),
            "top_contended_links": [
                {"link": link, "per_job_bytes": jobs_bytes}
                for link, jobs_bytes in top_links
            ],
            "jobs": [
                {
                    "job": out.name,
                    "arrival_ms": out.arrival_ns / 1e6,
                    "runtime_ms": out.runtime_ns / 1e6,
                    "isolated_runtime_ms": (
                        None
                        if out.isolated_runtime_ns is None
                        else out.isolated_runtime_ns / 1e6
                    ),
                    "slowdown": out.slowdown,
                    "messages": out.messages_delivered,
                    "bytes": out.bytes_delivered,
                }
                for out in res.outcomes
            ],
        }
    print(json.dumps(payload, indent=2))
    return 0


def _parse_fault_events(args: argparse.Namespace) -> List:
    """Parse the repeatable ``TARGET@TIME_NS`` fault-event flags."""
    from repro.network.faults import (
        LINK_DOWN,
        LINK_UP,
        SWITCH_DRAIN,
        SWITCH_UNDRAIN,
        FaultEvent,
    )

    flag_kinds = (
        ("--link-down", LINK_DOWN, args.link_down),
        ("--link-up", LINK_UP, args.link_up),
        ("--drain-switch", SWITCH_DRAIN, args.drain_switch),
        ("--undrain-switch", SWITCH_UNDRAIN, args.undrain_switch),
    )
    events = []
    for flag, kind, specs in flag_kinds:
        for spec in specs or ():
            target, sep, when = spec.rpartition("@")
            if not sep or not target:
                raise SystemExit(
                    f"bad {flag} spec {spec!r}; expected TARGET@TIME_NS "
                    f"(e.g. 'tor0->core1@50000')"
                )
            try:
                time_ns = int(when)
            except ValueError:
                raise SystemExit(
                    f"bad {flag} spec {spec!r}: time {when!r} is not an integer "
                    f"nanosecond value"
                ) from None
            if kind in (SWITCH_DRAIN, SWITCH_UNDRAIN):
                try:
                    target = int(target)
                except ValueError:
                    raise SystemExit(
                        f"bad {flag} spec {spec!r}: drain targets a switch "
                        f"device id (host count and up), got {target!r}"
                    ) from None
            try:
                events.append(FaultEvent(time_ns, kind, target))
            except ValueError as exc:
                raise SystemExit(f"bad {flag} spec {spec!r}: {exc}") from None
    return events


def _cmd_faults(args: argparse.Namespace) -> int:
    """Simulate a workload on a degraded fabric: failure-rate sweeps or explicit fault scenarios."""
    from repro.network.faults import FaultSchedule, NetworkPartitionError
    from repro.sweep import resilience_sweep

    from repro.network.control_plane import CONTROL_PLANES, control_plane_names

    schedule = _load_job_schedule(args.workload)
    control_planes = [c.strip() for c in args.control_plane.split(",") if c.strip()]
    if not control_planes:
        raise SystemExit("--control-plane lists no protocols")
    unknown_cp = [c for c in control_planes if c not in CONTROL_PLANES]
    if unknown_cp:
        raise SystemExit(
            f"unknown control plane(s) {unknown_cp}; "
            f"registered: {', '.join(control_plane_names())}"
        )
    if args.cp_propagation_ns < 0:
        raise SystemExit(
            f"--cp-propagation-ns must be non-negative, got {args.cp_propagation_ns}"
        )
    if args.cp_processing_ns < 0:
        raise SystemExit(
            f"--cp-processing-ns must be non-negative, got {args.cp_processing_ns}"
        )
    config = _config_from_args(args).replace(
        cp_propagation_ns=args.cp_propagation_ns,
        cp_processing_ns=args.cp_processing_ns,
    )
    events = _parse_fault_events(args)
    static = tuple(
        s.strip() for s in (args.fail_links.split(",") if args.fail_links else []) if s.strip()
    )

    if events or static:
        # explicit scenario: healthy baseline vs the described faults
        if len(control_planes) > 1:
            raise SystemExit(
                "--control-plane lists several protocols; an explicit fault "
                "scenario runs one (use the rate-sweep mode to compare them)"
            )
        try:
            faults = FaultSchedule(events=tuple(events), failed_links=static)
        except ValueError as exc:
            raise SystemExit(f"bad fault schedule: {exc}") from None
        atlahs = Atlahs(config)
        try:
            healthy = atlahs.simulate_goal(schedule, backend=args.backend)
            faulted = atlahs.simulate_goal(
                schedule,
                backend=args.backend,
                config=config.replace(faults=faults, control_plane=control_planes[0]),
            )
        except (ValueError, NetworkPartitionError) as exc:
            raise SystemExit(f"fault scenario failed: {exc}") from None
        payload = {
            "workload": schedule.name,
            "backend": faulted.backend,
            "control_plane": control_planes[0],
            "scenario": {
                "failed_links": list(static),
                "events": [
                    {"time_ns": ev.time_ns, "kind": ev.kind, "target": ev.target}
                    for ev in faults.sorted_events()
                ],
            },
            "healthy_time_ms": healthy.finish_time_ns / 1e6,
            "faulted_time_ms": faulted.finish_time_ns / 1e6,
            "slowdown": faulted.finish_time_ns / healthy.finish_time_ns,
            "packets_rerouted": faulted.stats.packets_rerouted,
            "packets_lost_to_faults": faulted.stats.packets_lost_to_faults,
            "packets_blackholed": faulted.stats.packets_blackholed,
            "time_to_recover_ns": faulted.stats.time_to_recover_ns,
            "packet_drops": faulted.stats.packets_dropped,
            "retransmissions": faulted.stats.retransmissions,
        }
        print(json.dumps(payload, indent=2))
        return 0

    # failure-rate sweep
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        raise SystemExit(
            f"--rates must be comma-separated fractions in [0, 1), got {args.rates!r}"
        ) from None
    if not rates:
        raise SystemExit("--rates lists no failure rates")
    routings = [r.strip() for r in args.routings.split(",") if r.strip()] or [args.routing]
    unknown = [r for r in routings if r not in ROUTING_STRATEGIES]
    if unknown:
        raise SystemExit(
            f"unknown routing strategies {unknown}; registered: {', '.join(routing_names())}"
        )
    if args.fail_time_ns is not None and args.fail_time_ns < 0:
        raise SystemExit(
            f"--fail-time-ns must be non-negative, got {args.fail_time_ns}"
        )
    try:
        entries = resilience_sweep(
            schedule,
            {args.topology: config},
            failure_rates=rates,
            routings=routings,
            backend=args.backend,
            failure_seed=args.failure_seed,
            control_planes=control_planes,
            fail_time_ns=args.fail_time_ns,
        )
    except ValueError as exc:
        raise SystemExit(f"bad resilience sweep: {exc}") from None
    except NetworkPartitionError as exc:
        raise SystemExit(
            f"failure rate partitions the fabric: {exc} "
            f"(lower the rate or change --failure-seed)"
        ) from None
    payload = {
        "workload": schedule.name,
        "backend": args.backend,
        "topology": args.topology,
        "failure_seed": args.failure_seed,
        "fail_time_ns": args.fail_time_ns,
        "cells": [
            {
                "routing": e.routing,
                "control_plane": e.control_plane,
                "failure_rate": e.failure_rate,
                "failed_links": e.failed_links,
                "finish_time_ms": e.finish_time_ms,
                "slowdown": e.slowdown,
                "packets_rerouted": e.packets_rerouted,
                "packets_lost_to_faults": e.packets_lost_to_faults,
                "packets_blackholed": e.packets_blackholed,
                "time_to_recover_ns": e.time_to_recover_ns,
                "packet_drops": e.packets_dropped,
            }
            for e in entries
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _parse_tenant_specs(text: str) -> List:
    """Parse a ``NAME:WEIGHT:PROMPT_TOKENS:DECODE_TOKENS`` tenant-mix list."""
    from repro.apps.inference import TenantSpec

    tenants = []
    for spec in text.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":")
        if len(parts) != 4:
            raise SystemExit(
                f"bad tenant spec {spec!r}; expected "
                f"NAME:WEIGHT:PROMPT_TOKENS:DECODE_TOKENS (e.g. chat:3:128:32)"
            )
        name, weight, prompt, decode = parts
        try:
            tenants.append(
                TenantSpec(
                    name=name,
                    weight=float(weight),
                    prompt_tokens=int(prompt),
                    decode_tokens=int(decode),
                )
            )
        except ValueError as exc:
            raise SystemExit(f"bad tenant spec {spec!r}: {exc}") from None
    if not tenants:
        raise SystemExit("--tenants lists no tenants")
    seen = set()
    for tenant in tenants:
        if tenant.name in seen:
            raise SystemExit(f"duplicate tenant name {tenant.name!r} in --tenants")
        seen.add(tenant.name)
    return tenants


def _cmd_inference(args: argparse.Namespace) -> int:
    """Sweep an inference-serving workload across offered rates and report SLO percentiles."""
    from repro.apps.inference import (
        DEFAULT_TENANTS,
        ServingClusterConfig,
        arrival_process_names,
    )
    from repro.measurement.serving import SloSpec
    from repro.sweep import inference_sweep

    if args.process not in arrival_process_names():
        raise SystemExit(
            f"unknown arrival process {args.process!r}; "
            f"expected one of {', '.join(arrival_process_names())}"
        )
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        raise SystemExit(
            f"--rates must be comma-separated requests/s, got {args.rates!r}"
        ) from None
    if not rates:
        raise SystemExit("--rates lists no offered rates")
    bad = [r for r in rates if r <= 0]
    if bad:
        raise SystemExit(
            f"bad --rates: offered rates must be positive requests/s, got {bad}"
        )
    tenants = list(DEFAULT_TENANTS) if args.tenants is None else _parse_tenant_specs(args.tenants)
    try:
        cluster = ServingClusterConfig(
            frontends=args.frontends,
            prefill_ranks=args.prefill_ranks,
            decode_ranks=args.decode_ranks,
            max_batch=args.max_batch,
        )
    except ValueError as exc:
        raise SystemExit(f"bad serving cluster: {exc}") from None
    try:
        slo = SloSpec(ttft_ns=int(args.slo_ttft_ms * 1e6))
    except ValueError as exc:
        raise SystemExit(f"bad --slo-ttft-ms: {exc}") from None

    config = _config_from_args(args)
    try:
        entries = inference_sweep(
            rates,
            configs={args.topology: config},
            backend=args.backend,
            num_requests=args.requests,
            process=args.process,
            tenants=tenants,
            cluster=cluster,
            seed=args.seed,
            slo=slo,
            parallel=args.parallel,
        )
    except ValueError as exc:
        raise SystemExit(f"bad inference sweep: {exc}") from None
    payload = {
        "workload": f"inference-{args.process}-{args.requests}req",
        "backend": args.backend,
        "topology": args.topology,
        "process": args.process,
        "requests": args.requests,
        "tenants": [
            {
                "name": t.name,
                "weight": t.weight,
                "prompt_tokens": t.prompt_tokens,
                "decode_tokens": t.decode_tokens,
            }
            for t in tenants
        ],
        "nominal_capacity_rps": round(cluster.nominal_capacity_rps(tenants), 1),
        "slo_ttft_ms": args.slo_ttft_ms,
        "cells": [
            {
                "rate_rps": e.rate_rps,
                "offered_rps": round(e.offered_rps, 1),
                "throughput_rps": round(e.throughput_rps, 1),
                "goodput_rps": round(e.goodput_rps, 1),
                "good_requests": e.good_requests,
                "ttft_p50_ms": round(e.ttft_p50_ns / 1e6, 3),
                "ttft_p99_ms": round(e.ttft_p99_ns / 1e6, 3),
                "ttft_p999_ms": round(e.ttft_p999_ns / 1e6, 3),
                "tpot_p50_ms": round(e.tpot_p50_ns / 1e6, 3),
                "mean_batch": round(e.mean_batch, 2),
                "finish_time_ms": e.finish_time_ns / 1e6,
            }
            for e in entries
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_collectives(args: argparse.Namespace) -> int:
    """List, describe or sweep the collective algorithm registry (see docs/collectives.md)."""
    from repro.collectives import (
        COLLECTIVE_ALGORITHMS,
        algorithm_names,
        collective_names,
        get_algorithm,
    )

    if args.describe:
        collective = args.collective
        try:
            alg = get_algorithm(collective, args.describe)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(f"{alg.collective} / {alg.name}")
        print(f"  {alg.description}")
        print(f"  hierarchical: {'yes (needs locality groups)' if alg.hierarchical else 'no'}")
        print(f"  LogGOPS cost: {alg.cost_formula}")
        return 0

    if not args.sweep:
        print("collective algorithms (LogGOPS cost: S = bytes, N = ranks, g = group")
        print("size, Ng = groups; select with algorithm names below, or 'auto'):")
        for collective in collective_names():
            print(f"\n{collective}:")
            for name in algorithm_names(collective):
                alg = COLLECTIVE_ALGORITHMS[collective][name]
                marker = " [hierarchical]" if alg.hierarchical else ""
                print(f"  {name:28s} {alg.description}{marker}")
        print("\ndetails: atlahs collectives --describe NAME [--collective KIND]")
        print("compare: atlahs collectives --sweep [--topologies ...] [--sizes ...]")
        return 0

    # --sweep: algorithms x topologies x sizes comparison
    from repro.sweep import collective_sweep

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(
            f"--sizes must be comma-separated byte counts, got {args.sizes!r}"
        ) from None
    if not sizes:
        raise SystemExit("--sizes lists no message sizes")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    topologies = [t.strip() for t in args.topologies.split(",") if t.strip()]
    unknown = [t for t in topologies if t not in topology_names()]
    if unknown:
        raise SystemExit(
            f"unknown topologies {unknown}; registered: {', '.join(topology_names())}"
        )
    base = _config_from_args(args)
    configs = {t: base.replace(topology=t) for t in topologies}
    try:
        entries = collective_sweep(
            configs,
            num_ranks=args.ranks,
            sizes=sizes,
            algorithms=algorithms,
            collective=args.collective,
            backend=args.backend,
            parallel=args.parallel,
        )
    except ValueError as exc:
        raise SystemExit(f"bad collective sweep: {exc}") from None

    cells = [
        {
            "topology": e.topology,
            "algorithm": e.algorithm,
            "resolved": e.resolved,
            "size": e.size,
            "finish_time_us": round(e.finish_time_us, 1),
            "autotuner_pick": e.autotuner_pick,
            "messages": e.messages_delivered,
        }
        for e in entries
    ]
    winners = {}
    for e in entries:
        key = (e.topology, e.size)
        if key not in winners or e.finish_time_ns < winners[key].finish_time_ns:
            winners[key] = e
    payload = {
        "collective": args.collective,
        "num_ranks": args.ranks,
        "backend": args.backend,
        "cells": cells,
        "winners": [
            {
                "topology": topo,
                "size": size,
                "algorithm": best.resolved,
                "finish_time_us": round(best.finish_time_us, 1),
                "autotuner_pick": best.autotuner_pick,
            }
            for (topo, size), best in sorted(winners.items())
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _first_doc_line(obj) -> str:
    """First docstring line of ``obj``, or '' when it has none (e.g. -OO)."""
    lines = (getattr(obj, "__doc__", None) or "").strip().splitlines()
    return lines[0] if lines else ""


def _cmd_topologies(args: argparse.Namespace) -> int:
    """List registered topologies and routing strategies."""
    print("topologies:")
    for name in topology_names():
        print(f"  {name:15s} {TOPOLOGY_DESCRIPTIONS.get(name, '')}")
    print()
    print("routing strategies:")
    for name in routing_names():
        print(f"  {name:15s} {_first_doc_line(ROUTING_STRATEGIES[name])}")
    print()
    print("select with --topology NAME --routing NAME (any subcommand, both backends)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite, write BENCH_<rev>.json, compare to a baseline."""
    from repro.perf import (
        compare_to_baseline,
        default_suite,
        load_bench,
        run_suite,
        write_bench,
    )

    cases = None
    if args.cases:
        cases = [c for c in default_suite(args.quick) if args.cases in c.name]
        if not cases:
            known = ", ".join(c.name for c in default_suite(args.quick))
            print(f"error: --cases {args.cases!r} matches no case (have: {known})")
            return 2
    results = run_suite(quick=args.quick, cases=cases)
    rows = []
    for name, case in results["cases"].items():
        eps = case["events_per_s"]
        rows.append(
            f"  {name:28s} {case['wall_clock_s']*1e3:9.1f} ms   "
            f"{(str(eps) + ' ev/s') if eps else '-':>14s}   rss {case['peak_rss_kb']} KiB"
        )
    print(f"bench @ {results['revision']} (quick={results['quick']})")
    print("\n".join(rows))

    path = write_bench(results, args.output)
    print(f"\nwrote {path}")

    if args.baseline:
        comparison = compare_to_baseline(
            results,
            load_bench(args.baseline),
            max_regression=args.max_regression,
            max_rss_regression=args.max_rss_regression,
        )
        for entry in comparison.entries:
            marker = "REGRESSED" if entry.regressed else "ok"
            line = (
                f"  vs baseline {entry.name:28s} {entry.speedup:5.2f}x "
                f"({entry.baseline_wall_s*1e3:.1f} ms -> {entry.current_wall_s*1e3:.1f} ms)"
            )
            if entry.rss_ratio is not None:
                rss_marker = " RSS-REGRESSED" if entry.rss_regressed else ""
                line += (
                    f"  rss {entry.rss_ratio:4.2f}x "
                    f"({entry.baseline_rss_kb} -> {entry.current_rss_kb} KiB)"
                    f"{rss_marker}"
                )
            print(f"{line}  {marker}")
        for name in comparison.missing:
            print(f"  vs baseline {name:28s} (present on one side only, skipped)")
        if not comparison.ok:
            print(
                f"FAIL: {len(comparison.regressions)} case(s) regressed "
                f"(wall clock > {args.max_regression}x"
                + (
                    f" or peak RSS > {args.max_rss_regression}x"
                    if args.max_rss_regression
                    else ""
                )
                + f") vs {args.baseline}"
            )
            return 1
        print(f"baseline check passed (threshold {args.max_regression}x)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlahs",
        description="ATLAHS reproduction: application-centric network simulation toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replay a GOAL file", description=_first_doc_line(_cmd_simulate))
    p.add_argument("goal_file")
    _add_network_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "hpc",
        help="trace and simulate an HPC application model",
        description=_first_doc_line(_cmd_hpc),
    )
    p.add_argument("app", choices=sorted(HPC_APPLICATIONS))
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--cells-per-rank", type=int, default=32_000)
    p.add_argument("--scaling", choices=["weak", "strong"], default="weak")
    _add_network_args(p)
    p.set_defaults(func=_cmd_hpc)

    p = sub.add_parser(
        "ai",
        help="trace and simulate an LLM training workload",
        description=_first_doc_line(_cmd_ai),
    )
    p.add_argument("model", choices=sorted(MODEL_PRESETS))
    p.add_argument("--scale", type=float, default=0.05, help="model scale factor (1.0 = full size)")
    p.add_argument("--tp", type=int, default=1)
    p.add_argument("--pp", type=int, default=1)
    p.add_argument("--dp", type=int, default=8)
    p.add_argument("--ep", type=int, default=1)
    p.add_argument("--microbatches", type=int, default=2)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--gpus-per-node", type=int, default=4)
    p.add_argument(
        "--collective-algorithm",
        default=None,
        metavar="NAME",
        help="override the NCCL collective decomposition with a registry "
        "algorithm (e.g. hier_rs, recursive_halving_doubling) or 'auto'; "
        "see 'atlahs collectives'",
    )
    _add_network_args(p)
    p.set_defaults(func=_cmd_ai)

    p = sub.add_parser(
        "storage",
        help="replay a Financial-like workload against Direct Drive",
        description=_first_doc_line(_cmd_storage),
    )
    p.add_argument("--operations", type=int, default=1000)
    _add_network_args(p)
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser(
        "synthetic",
        help="run a synthetic microbenchmark",
        description=_first_doc_line(_cmd_synthetic),
    )
    p.add_argument("pattern", choices=["incast", "permutation", "alltoall", "allreduce"])
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--message-size", type=int, default=1 << 20)
    _add_network_args(p)
    p.set_defaults(func=_cmd_synthetic)

    p = sub.add_parser(
        "cotenant",
        help="run several jobs concurrently on one fabric (per-job attribution)",
        description=_first_doc_line(_cmd_cotenant),
    )
    p.add_argument(
        "jobs",
        nargs="+",
        metavar="JOB",
        help="GOAL file (textual or binary) or synthetic spec pattern:ranks:size "
        "(e.g. alltoall:8:65536)",
    )
    p.add_argument(
        "--arrivals",
        default=None,
        metavar="NS[,NS...]",
        help="per-job arrival times in ns (default: all 0)",
    )
    p.add_argument(
        "--cluster-nodes",
        type=int,
        default=None,
        help="cluster size (default: sum of the jobs' rank counts)",
    )
    p.add_argument(
        "--placement",
        default="packed",
        metavar="STRATEGY[,STRATEGY...]",
        help="placement strategies to run and compare (packed, fragmented, "
        "random, random_interleaved, round_robin, strided, locality)",
    )
    p.add_argument(
        "--group-size", type=int, default=0, help="locality/fragmented group width"
    )
    p.add_argument(
        "--shared",
        action="store_true",
        help="fuse tenants onto shared nodes (multi-tenant DAGs) instead of disjoint nodes",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the per-job isolated baseline runs (no slowdown column)",
    )
    _add_network_args(p)
    p.set_defaults(func=_cmd_cotenant)

    p = sub.add_parser(
        "faults",
        help="simulate a workload on a degraded fabric (failure sweeps, timed events)",
        description=_first_doc_line(_cmd_faults),
    )
    p.add_argument(
        "workload",
        metavar="WORKLOAD",
        help="GOAL file (textual or binary) or synthetic spec pattern:ranks:size "
        "(e.g. alltoall:16:65536)",
    )
    p.add_argument(
        "--rates",
        default="0,0.1,0.25",
        metavar="RATE[,RATE...]",
        help="link-failure rates to sweep (fraction of switch-to-switch cables)",
    )
    p.add_argument(
        "--routings",
        default="",
        metavar="NAME[,NAME...]",
        help="routing strategies to compare in the sweep (default: --routing)",
    )
    p.add_argument(
        "--failure-seed", type=int, default=0, help="seed of the random cable draw"
    )
    p.add_argument(
        "--control-plane",
        default="oracle",
        metavar="NAME[,NAME...]",
        help="route-convergence model(s): oracle (instantaneous, the legacy "
        "behavior), ls (link-state flooding), dv (distance-vector); a comma "
        "list adds a sweep axis",
    )
    p.add_argument(
        "--cp-propagation-ns",
        type=int,
        default=500,
        help="per-hop advertisement propagation delay of dv/ls (ns)",
    )
    p.add_argument(
        "--cp-processing-ns",
        type=int,
        default=100,
        help="per-switch advertisement processing cost of dv/ls (ns)",
    )
    p.add_argument(
        "--fail-time-ns",
        type=int,
        default=None,
        metavar="TIME_NS",
        help="sweep mode: fail the drawn cables at this time instead of "
        "time 0, exposing a convergence window under dv/ls",
    )
    p.add_argument(
        "--fail-links",
        default=None,
        metavar="NAME[,NAME...]",
        help="links down from time 0 (e.g. 'tor0->core1,core1->tor0'); "
        "switches an explicit scenario instead of a rate sweep",
    )
    p.add_argument(
        "--link-down", action="append", metavar="NAME@TIME_NS",
        help="timed link failure (repeatable)",
    )
    p.add_argument(
        "--link-up", action="append", metavar="NAME@TIME_NS",
        help="timed link recovery (repeatable)",
    )
    p.add_argument(
        "--drain-switch", action="append", metavar="DEVICE@TIME_NS",
        help="timed switch drain: every link of the switch fails (repeatable)",
    )
    p.add_argument(
        "--undrain-switch", action="append", metavar="DEVICE@TIME_NS",
        help="timed switch recovery (repeatable)",
    )
    _add_network_args(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "inference",
        help="sweep an inference-serving workload and report SLO percentiles",
        description=_first_doc_line(_cmd_inference),
    )
    p.add_argument("--requests", type=int, default=64, help="requests per cell")
    p.add_argument(
        "--rates",
        default="200,400,800",
        metavar="RPS[,RPS...]",
        help="offered request rates (requests/s) to sweep",
    )
    p.add_argument(
        "--process",
        default="poisson",
        metavar="NAME",
        help="arrival process: poisson, bursty or diurnal",
    )
    p.add_argument(
        "--tenants",
        default=None,
        metavar="NAME:WEIGHT:PROMPT:DECODE[,...]",
        help="tenant mix, e.g. 'chat:3:128:32,batch:1:512:8' "
        "(default: the built-in chat+summarize mix)",
    )
    p.add_argument("--frontends", type=int, default=1, help="frontend ranks")
    p.add_argument("--prefill-ranks", type=int, default=2, help="prefill ranks")
    p.add_argument("--decode-ranks", type=int, default=2, help="decode ranks")
    p.add_argument(
        "--max-batch", type=int, default=8, help="continuous-batching cap per decode rank"
    )
    p.add_argument(
        "--slo-ttft-ms",
        type=float,
        default=2000.0,
        help="TTFT deadline in ms for the goodput accounting",
    )
    p.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: serial)",
    )
    _add_network_args(p)
    p.set_defaults(func=_cmd_inference)

    p = sub.add_parser(
        "collectives",
        help="list/describe collective algorithms, or sweep them across topologies",
        description=_first_doc_line(_cmd_collectives),
    )
    p.add_argument(
        "--collective",
        default="allreduce",
        metavar="KIND",
        help="collective kind (allreduce, allgather, reduce_scatter, bcast, "
        "barrier, alltoall)",
    )
    p.add_argument(
        "--describe", default=None, metavar="NAME",
        help="print one algorithm's reference entry (pattern, cost formula)",
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="simulate an algorithms x topologies x sizes grid and report winners",
    )
    p.add_argument(
        "--algorithms",
        default="ring,recursive_halving_doubling,bucket,hier_rs,auto",
        metavar="NAME[,NAME...]",
        help="algorithms to sweep ('auto' = per-cell LogGOPS autotuner pick)",
    )
    p.add_argument(
        "--topologies",
        default="fat_tree,dragonfly",
        metavar="NAME[,NAME...]",
        help="topology families to sweep (shape taken from the shared network flags)",
    )
    p.add_argument(
        "--sizes",
        default="262144,4194304",
        metavar="BYTES[,BYTES...]",
        help="message sizes in bytes (total buffer; per-pair for alltoall)",
    )
    p.add_argument("--ranks", type=int, default=32, help="communicator size")
    p.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: serial)",
    )
    _add_network_args(p)
    p.set_defaults(func=_cmd_collectives)

    p = sub.add_parser(
        "topologies",
        help="list registered topologies and routing strategies",
        description=_first_doc_line(_cmd_topologies),
    )
    p.set_defaults(func=_cmd_topologies)

    p = sub.add_parser(
        "bench",
        help="run the performance suite and track BENCH_*.json baselines",
        description=_first_doc_line(_cmd_bench),
    )
    p.add_argument("--quick", action="store_true", help="tiny workloads (CI smoke job)")
    p.add_argument(
        "--cases",
        default=None,
        help="only run cases whose name contains this substring "
        "(e.g. 'allreduce16k' for the scale cases alone)",
    )
    p.add_argument("--output", default=None, help="output path (default BENCH_<rev>.json)")
    p.add_argument("--baseline", default=None, help="baseline BENCH_*.json to compare against")
    p.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a case's wall clock exceeds this multiple of the baseline",
    )
    p.add_argument(
        "--max-rss-regression",
        type=float,
        default=None,
        help="fail when a case's peak RSS exceeds this multiple of the baseline "
        "(requires a baseline recorded with RSS; 1.2 = the CI memory gate)",
    )
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkerError as exc:  # --shards / --parallel worker processes
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
