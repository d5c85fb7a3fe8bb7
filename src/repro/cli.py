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
* ``atlahs topologies`` — list registered topologies and routing strategies.

Every simulation subcommand accepts the shared network flags
(``--backend``, ``--topology``, ``--routing``, topology shape parameters,
``--cc``, ``--seed``); ``topologies`` is a pure listing and takes none.

Each front-door decision is made once: the network flags are one table
(:data:`_NETWORK_FLAGS`), list flags go through one parser
(:func:`_list_flag`), values are validated by the library and a rejected
one ends in one line at :func:`main`, and every JSON report goes through
one printer (:func:`_print_json`).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
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
from repro.scheduler import SchedulerDeadlockError, check_shards
from repro.tracers.storage import FinancialWorkloadGenerator
from repro.workers import WorkerError

#: The network flags: (SimulationConfig field, flag, help).  Each flag's
#: default is the field's default and its type that of the default, so the
#: CLI cannot drift from the library (tests/test_core_and_cli.py checks it).
_NETWORK_FLAGS = (
    ("topology", "--topology", "network topology"),
    ("routing", "--routing", "routing strategy"),
    ("nodes_per_tor", "--nodes-per-tor", "fat tree: hosts per ToR"),
    ("oversubscription", "--oversubscription", "fat tree: ToR downlink:uplink ratio"),
    ("fattree_planes", "--fattree-planes", "fat_tree_multiplane: number of drainable core planes"),
    ("fattree_rails", "--fattree-rails", "fat_tree_rail: GPUs (rails) per server"),
    ("torus_dims", "--torus-dims", "torus: ring length per dimension (e.g. 4,4 or 4,4,2)"),
    ("torus_hosts_per_node", "--torus-hosts-per-node", "torus: hosts per switch"),
    ("slimfly_q", "--slimfly-q", "slim fly: prime q = 1 mod 4 (5, 13, 17, ...)"),
    (
        "slimfly_hosts_per_router", "--slimfly-hosts-per-router",
        "slim fly: hosts per router (0 = balanced concentration)",
    ),
    ("cc_algorithm", "--cc", "congestion control (packet backend)"),
    (
        "route_cache_entries", "--route-cache-entries",
        "LRU budget per route-table cache (0 = unbounded; see docs/scaling.md)",
    ),
    (
        "shards", "--shards",
        "parallel shards for the packet backend (1 = single-process; requires --backend "
        "htsim; see docs/scaling.md for the conservative-window engine)",
    ),
    ("seed", "--seed", "seed for stochastic choices"),
)

#: The registry each string-valued network flag chooses from.
_FLAG_CHOICES = {
    "topology": topology_names,
    "routing": routing_names,
    "cc_algorithm": congestion_control_names,
}

#: ``pattern:ranks:size`` synthetic workloads (``atlahs synthetic`` and job specs).
_PATTERNS = {
    "incast": incast,
    "permutation": permutation,
    "alltoall": all_to_all,
    "allreduce": ring_allreduce_microbenchmark,
}


def _dest(flag: str) -> str:
    """The argparse dest of an option flag (``--nodes-per-tor`` -> ``nodes_per_tor``)."""
    return flag[2:].replace("-", "_")


def _parse_dims(text: str) -> tuple:
    """Parse a comma-separated torus shape like ``"4,4"`` or ``"4,4,2"``."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid torus dims {text!r}; expected e.g. 4,4") from None


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
    group = parser.add_argument_group("network")
    group.add_argument("--backend", choices=["lgs", "htsim"], default="lgs", help="network backend")
    for field, flag, help_text in _NETWORK_FLAGS:
        default = defaults[field]
        if field in _FLAG_CHOICES:
            kind = {"choices": list(_FLAG_CHOICES[field]())}
        elif isinstance(default, tuple):
            kind = {"type": _parse_dims, "metavar": "X,Y[,Z]"}
        else:
            kind = {"type": type(default)}
        group.add_argument(flag, default=default, help=help_text, **kind)


def _config_from_args(args: argparse.Namespace, *fields: str) -> SimulationConfig:
    """The run's config: the network flags plus ``fields`` set by the subcommand's own flags."""
    try:
        # up front: before the subcommand spends time generating a schedule
        check_shards(args.shards, args.backend)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    flags = {field: flag for field, flag, _ in _NETWORK_FLAGS}
    flags.update((field, "--" + field.replace("_", "-")) for field in fields)
    values = {field: getattr(args, _dest(flag)) for field, flag in flags.items()}
    try:
        return SimulationConfig(**values)
    except ValueError as exc:
        # the config names the field it rejected; name the flag and value
        named = [
            f"{flags[field]} {value}"
            for field, value in values.items()
            if re.search(rf"\b{field}\b", str(exc))
        ]
        raise SystemExit(f"bad {', '.join(named) or 'network flags'}: {exc}") from None


def _list_flag(args: argparse.Namespace, flag: str, what: str, convert=str, registry=None) -> list:
    """The comma-separated values of list flag ``flag``, each through ``convert``.

    ``what`` names the values in the messages; a ``registry`` mapping
    rejects unknown names before anything runs.  Every other check is the
    library's.
    """
    text = getattr(args, _dest(flag)) or ""
    try:
        values = [convert(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise SystemExit(f"{flag} must be comma-separated {what}, got {text!r}") from None
    unknown = [v for v in values if registry is not None and v not in registry]
    if unknown:
        raise SystemExit(f"unknown {what} {unknown}; registered: {', '.join(sorted(registry))}")
    return values


def _finite(value):
    """``value`` with every non-finite float (a ratio over zero) replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _print_json(payload: dict) -> int:
    """Print a report as strict JSON (NaN/inf become ``null``); the command's exit code."""
    print(json.dumps(_finite(payload), indent=2, allow_nan=False))
    return 0


def _pick(obj, *names: str) -> dict:
    """``{name: obj.name}`` for each of ``names``, in order."""
    return {name: getattr(obj, name) for name in names}


def _print_result(name: str, result, **extra) -> int:
    """One run's report: what it simulated (its digest) and its host wall clock."""
    return _print_json({
        "workload": name,
        "backend": result.backend,
        **result.digest(),
        "wall_clock_s": round(result.wall_clock_s, 3),
        **extra,
    })


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
    return _print_result(schedule.name, result)


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
    return _print_result(
        f"{args.app}-{args.ranks}", out.result,
        trace_bytes=out.trace_bytes, goal_bytes=out.goal_bytes,
    )


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
    return _print_result(
        f"{args.model} ({par.describe()})", out.result,
        trace_bytes=out.trace_bytes, goal_bytes=out.goal_bytes, gpus=par.num_gpus,
    )


def _cmd_storage(args: argparse.Namespace) -> int:
    """Generate a Financial-like workload and replay it against Direct Drive."""
    atlahs = Atlahs(_config_from_args(args))
    trace = FinancialWorkloadGenerator(seed=args.seed).generate(args.operations)
    out = atlahs.run_storage(trace, DirectDriveConfig(), backend=args.backend)
    mct = out.result.mct_statistics()
    return _print_result(
        f"direct-drive-{args.operations}ops", out.result,
        mct_mean_us=mct["mean"] / 1e3, mct_p99_us=mct["p99"] / 1e3, mct_max_us=mct["max"] / 1e3,
    )


def _cmd_synthetic(args: argparse.Namespace) -> int:
    """Run a synthetic microbenchmark (incast, permutation, alltoall, allreduce)."""
    atlahs = Atlahs(_config_from_args(args))
    if args.pattern == "permutation":
        schedule = permutation(args.ranks, args.message_size, seed=args.seed)
    else:
        schedule = _PATTERNS[args.pattern](args.ranks, args.message_size)
    result = atlahs.simulate_goal(schedule, backend=args.backend)
    return _print_result(f"{args.pattern}-{args.ranks}", result)


def _load_job_schedule(spec: str):
    """Load one co-tenant job: a GOAL file path or a ``pattern:ranks:size`` spec.

    Synthetic specs (``incast:16:65536``, ``alltoall:8:4096``,
    ``permutation:8:1048576``, ``allreduce:8:1048576``) let multi-job runs be
    assembled without trace files on disk.
    """
    import os

    if not os.path.exists(spec) and spec.count(":") == 2:
        pattern, ranks, size = spec.split(":")
        if pattern not in _PATTERNS:
            raise SystemExit(
                f"unknown synthetic pattern {pattern!r} in job spec {spec!r}; "
                f"expected one of {sorted(_PATTERNS)}"
            )
        try:
            schedule = _PATTERNS[pattern](int(ranks), int(size))
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
    arrivals = _list_flag(args, "--arrivals", "integers (ns)", int) or [0] * len(schedules)
    if len(arrivals) != len(schedules):
        raise SystemExit(f"--arrivals lists {len(arrivals)} times for {len(schedules)} jobs")
    try:
        jobs = [
            ClusterJob(schedule, arrival_ns=arrival)
            for schedule, arrival in zip(schedules, arrivals)
        ]
    except ValueError as exc:
        raise SystemExit(f"bad --arrivals: {exc}") from None
    strategies = _list_flag(
        args, "--placement", "placement strategies", registry=PLACEMENT_STRATEGIES
    )

    config = _config_from_args(args)
    strategy_kwargs = {"seed": args.seed}
    if args.group_size is not None:
        if args.group_size <= 0:
            raise ValueError("group_size must be positive")
        grouped = [s for s in PLACEMENT_STRATEGIES if filter_strategy_kwargs(s, {"group_size": 1})]
        if not set(strategies) & set(grouped):
            raise ValueError(
                f"--group-size applies to {', '.join(grouped)} only; "
                f"--placement {','.join(strategies)} takes no groups"
            )
        strategy_kwargs["group_size"] = args.group_size
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
    return _print_json(payload)


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

    schedule = _load_job_schedule(args.workload)
    control_planes = _list_flag(args, "--control-plane", "control planes")
    config = _config_from_args(args, "cp_propagation_ns", "cp_processing_ns")
    events = _parse_fault_events(args)
    static = tuple(_list_flag(args, "--fail-links", "link names"))

    if events or static:
        # explicit scenario: healthy baseline vs the described faults
        if len(control_planes) != 1:
            raise SystemExit(
                f"--control-plane lists {len(control_planes)} protocols; an explicit "
                "fault scenario runs one (use the rate-sweep mode to compare several protocols)"
            )
        faults = FaultSchedule(events=tuple(events), failed_links=static)
        atlahs = Atlahs(config)
        try:
            healthy = atlahs.simulate_goal(schedule, backend=args.backend)
            faulted = atlahs.simulate_goal(
                schedule,
                backend=args.backend,
                config=config.replace(faults=faults, control_plane=control_planes[0]),
            )
        except NetworkPartitionError as exc:
            raise SystemExit(f"fault scenario failed: {exc}") from None
        return _print_json({
            "workload": schedule.name,
            "backend": faulted.backend,
            "control_plane": control_planes[0],
            "scenario": {
                "failed_links": list(static),
                "events": [_pick(ev, "time_ns", "kind", "target") for ev in faults.sorted_events()],
            },
            "healthy_time_ms": healthy.finish_time_ns / 1e6,
            "faulted_time_ms": faulted.finish_time_ns / 1e6,
            # a schedule that finishes at t=0 when healthy has no slowdown
            "slowdown": (
                faulted.finish_time_ns / healthy.finish_time_ns if healthy.finish_time_ns else None
            ),
            **faulted.digest(),
        })

    # failure-rate sweep
    rates = _list_flag(args, "--rates", "fractions in [0, 1)", float)
    routings = _list_flag(
        args, "--routings", "routing strategies", registry=ROUTING_STRATEGIES
    ) or [args.routing]
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
    except NetworkPartitionError as exc:
        raise SystemExit(
            f"failure rate partitions the fabric: {exc} "
            f"(lower the rate or change --failure-seed)"
        ) from None
    return _print_json({
        "workload": schedule.name,
        "backend": args.backend,
        "topology": args.topology,
        "failure_seed": args.failure_seed,
        "fail_time_ns": args.fail_time_ns,
        "cells": [
            {
                **_pick(e, "routing", "control_plane", "failure_rate", "failed_links"),
                "finish_time_ms": e.finish_time_ns / 1e6,
                **_pick(
                    e, "slowdown", "packets_rerouted", "packets_lost_to_faults",
                    "packets_blackholed", "time_to_recover_ns",
                ),
                "packet_drops": e.packets_dropped,
            }
            for e in entries
        ],
    })


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
    from repro.apps.inference import DEFAULT_TENANTS, ServingClusterConfig
    from repro.measurement.serving import SloSpec
    from repro.sweep import inference_sweep

    rates = _list_flag(args, "--rates", "requests/s", float)
    tenants = list(DEFAULT_TENANTS) if args.tenants is None else _parse_tenant_specs(args.tenants)
    cluster = ServingClusterConfig(
        frontends=args.frontends,
        prefill_ranks=args.prefill_ranks,
        decode_ranks=args.decode_ranks,
        max_batch=args.max_batch,
    )
    try:
        slo = SloSpec(ttft_ns=int(args.slo_ttft_ms * 1e6))
    except ValueError as exc:
        raise SystemExit(f"bad --slo-ttft-ms: {exc}") from None
    entries = inference_sweep(
        rates,
        configs={args.topology: _config_from_args(args)},
        backend=args.backend,
        num_requests=args.requests,
        process=args.process,
        tenants=tenants,
        cluster=cluster,
        seed=args.seed,
        slo=slo,
        parallel=args.parallel,
    )
    return _print_json({
        "workload": f"inference-{args.process}-{args.requests}req",
        "backend": args.backend,
        "topology": args.topology,
        "process": args.process,
        "requests": args.requests,
        "tenants": [dataclasses.asdict(t) for t in tenants],
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
    })


def _cmd_collectives(args: argparse.Namespace) -> int:
    """List, describe or sweep the collective algorithm registry (see docs/collectives.md)."""
    from repro.collectives import (
        COLLECTIVE_ALGORITHMS,
        algorithm_names,
        collective_names,
        get_algorithm,
    )

    if args.describe:
        alg = get_algorithm(args.collective, args.describe)
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

    sizes = _list_flag(args, "--sizes", "byte counts", int)
    algorithms = _list_flag(args, "--algorithms", "algorithms")
    base = _config_from_args(args)
    configs = {t: base.replace(topology=t) for t in _list_flag(args, "--topologies", "topologies")}
    entries = collective_sweep(
        configs,
        num_ranks=args.ranks,
        sizes=sizes,
        algorithms=algorithms,
        collective=args.collective,
        backend=args.backend,
        parallel=args.parallel,
    )
    winners = {}
    for e in entries:
        key = (e.topology, e.size)
        if key not in winners or e.finish_time_ns < winners[key].finish_time_ns:
            winners[key] = e
    return _print_json({
        "collective": args.collective,
        "num_ranks": args.ranks,
        "backend": args.backend,
        "cells": [
            {
                **_pick(e, "topology", "algorithm", "resolved", "size"),
                "finish_time_us": round(e.finish_time_ns / 1e3, 1),
                "autotuner_pick": e.autotuner_pick,
                "messages": e.messages_delivered,
            }
            for e in entries
        ],
        "winners": [
            {
                "topology": topo,
                "size": size,
                "algorithm": best.resolved,
                "finish_time_us": round(best.finish_time_ns / 1e3, 1),
                "autotuner_pick": best.autotuner_pick,
            }
            for (topo, size), best in sorted(winners.items())
        ],
    })


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


@contextlib.contextmanager
def _subcommand(sub, func, help_text: str, network: bool = True):
    """Declare subcommand ``func`` (``_cmd_<name>``); add its own arguments in the body.

    The description is ``func``'s first docstring line, and the network
    flags follow the subcommand's own arguments.
    """
    parser = sub.add_parser(
        func.__name__[len("_cmd_"):], help=help_text, description=_first_doc_line(func)
    )
    yield parser
    if network:
        _add_network_args(parser)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlahs",
        description="ATLAHS reproduction: application-centric network simulation toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    with _subcommand(sub, _cmd_simulate, "replay a GOAL file") as p:
        p.add_argument("goal_file")

    with _subcommand(sub, _cmd_hpc, "trace and simulate an HPC application model") as p:
        p.add_argument("app", choices=sorted(HPC_APPLICATIONS))
        p.add_argument("--ranks", type=int, default=16)
        p.add_argument("--iterations", type=int, default=5)
        p.add_argument("--cells-per-rank", type=int, default=32_000)
        p.add_argument("--scaling", choices=["weak", "strong"], default="weak")

    with _subcommand(sub, _cmd_ai, "trace and simulate an LLM training workload") as p:
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

    with _subcommand(sub, _cmd_storage, "replay a Financial-like workload against Direct Drive") as p:
        p.add_argument("--operations", type=int, default=1000)

    with _subcommand(sub, _cmd_synthetic, "run a synthetic microbenchmark") as p:
        p.add_argument("pattern", choices=list(_PATTERNS))
        p.add_argument("--ranks", type=int, default=16)
        p.add_argument("--message-size", type=int, default=1 << 20)

    with _subcommand(
        sub, _cmd_cotenant, "run several jobs concurrently on one fabric (per-job attribution)"
    ) as p:
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
            "--group-size",
            type=int,
            help="locality/fragmented group width (default: the topology's host groups)",
        )
        p.add_argument(
            "--no-baseline",
            action="store_true",
            help="skip the per-job isolated baseline runs (no slowdown column)",
        )

    with _subcommand(
        sub, _cmd_faults, "simulate a workload on a degraded fabric (failure sweeps, timed events)"
    ) as p:
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
            help="route-convergence model(s): oracle (every switch knows a fault "
            "at once, the default), ls (link-state flooding), dv (distance-vector); "
            "a comma list adds a sweep axis",
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

    with _subcommand(
        sub, _cmd_inference, "sweep an inference-serving workload and report SLO percentiles"
    ) as p:
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

    with _subcommand(
        sub, _cmd_collectives,
        "list/describe collective algorithms, or sweep them across topologies",
    ) as p:
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

    with _subcommand(
        sub, _cmd_topologies, "list registered topologies and routing strategies", network=False
    ):
        pass

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, WorkerError, MemoryError) as exc:
        # the one error boundary: a value the library rejects (it names the
        # field or value), a dead --shards / --parallel worker or a run this
        # host has no memory for is one line
        raise SystemExit(f"atlahs {args.command}: {str(exc) or type(exc).__name__}") from None


if __name__ == "__main__":
    sys.exit(main())
