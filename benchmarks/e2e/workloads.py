"""The benchmark's workloads: inputs built from a seed, one timed operation each.

Every workload has three parts, all driven by :mod:`child`:

``setup(seed, smoke, tr)``
    Build the inputs (trace, and for all but the ingest workload the GOAL
    schedule).  This is what ``setup_s`` times, after process start and
    ``import repro``.
``run(tr)``
    The timed operation.  With a disabled tracer it calls the program the way
    a user would; with an enabled one it makes the same calls one layer at a
    time inside spans.  Returns the digest of simulated statistics and raises
    when the outputs are wrong.
``side(tr, run_wall_s, digest)``
    Traced runs only: measurements a span around the timed operation cannot
    give (route-table construction happens inside the packet loop, the serial
    cost of a sweep cell inside a pool worker), taken once, outside every
    timed span.

The seed moves what leaves the amount of work alone (compute jitter, ECMP
hashing, the random placement).  ``storage_ndp_htsim`` keeps one SPC trace for
every seed: NDP incast is chaotic in the trace, so across trace seeds the
event count has an interquartile range of 20 % of its median, twice the bound
the wall clock is held to.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.cluster import ClusterJob, build_cotenant_schedule, run_cotenant
from repro.collectives import build_collective_schedule
from repro.goal import (
    GoalSchedule,
    decode_goal,
    encode_goal,
    parse_goal,
    validate_schedule,
    write_goal,
)
from repro.network import LogGOPSParams, SimulationConfig
from repro.network.packet.sharded import plan_shards
from repro.network.topology import build_topology
from repro.placement import JobRequest, filter_strategy_kwargs, place_jobs
from repro.schedgen import (
    DirectDriveConfig,
    all_to_all,
    mpi_trace_to_goal,
    nccl_trace_to_goal,
    storage_trace_to_goal,
)
from repro.scheduler import GoalScheduler
from repro.sweep import interference_sweep
from repro.tracers.storage import FinancialWorkloadGenerator
from spans import Tracer

Digest = Dict[str, object]


class WrongOutput(Exception):
    """The program finished but what it produced fails the benchmark's check."""


class Workload:
    """Base class; see the module docstring for the three parts."""

    name: str
    #: Operations one repetition attempts (GOAL ops, or sweep cells); set by expect.
    units: int = 0
    #: Records in the application trace that set-up generated.
    trace_records: int = 0

    def setup(self, seed: int, smoke: bool, tr: Tracer) -> None:
        raise NotImplementedError

    def expect(self) -> None:
        """Untimed: work out ``units`` and what a correct repetition delivers."""
        raise NotImplementedError

    def run(self, tr: Tracer) -> Digest:
        raise NotImplementedError

    def side(self, tr: Tracer, run_wall_s: float, digest: Digest) -> Dict[str, float]:
        return {}

    def counts(self, digest: Digest) -> Dict[str, float]:
        """Work counts of the layers, read from what the calls returned."""
        return {"tracers.records": self.trace_records} if self.trace_records else {}


# --------------------------------------------------------------- simulations
class Simulation(Workload):
    """Replay one GOAL schedule on one backend: workloads 1 to 5."""

    backend: str
    #: The layer whose span holds the event loop(s).
    loop_layer = "backend"

    def schedule(self, seed: int, smoke: bool, tr: Tracer) -> GoalSchedule:
        raise NotImplementedError

    def config(self, seed: int) -> SimulationConfig:
        raise NotImplementedError

    def setup(self, seed: int, smoke: bool, tr: Tracer) -> None:
        self.goal = self.schedule(seed, smoke, tr)
        self.cfg = self.config(seed)

    def expect(self) -> None:
        self.units = self.goal.num_ops()
        self.sends = self.goal.op_counts()["send"]
        self.send_bytes = self.goal.total_bytes()

    def run(self, tr: Tracer) -> Digest:
        with tr.span("scheduler.init"):
            scheduler = GoalScheduler(self.goal, self.backend, self.cfg, validate=False)
        result = self.run_in_spans(scheduler, tr) if tr.enabled else scheduler.run()
        stats = result.stats
        digest = {
            "finish_time_ns": result.finish_time_ns,
            "ops_completed": result.ops_completed,
            "events": scheduler.events_executed,
            "messages_delivered": stats.messages_delivered,
            "bytes_delivered": stats.bytes_delivered,
            "packets_sent": stats.packets_sent,
            "packets_delivered": stats.packets_delivered,
            "packets_dropped": stats.packets_dropped,
            "packets_trimmed": stats.packets_trimmed,
            "packets_ecn_marked": stats.packets_ecn_marked,
            "retransmissions": stats.retransmissions,
            "route_cache_hits": stats.route_cache_hits,
            "route_cache_misses": stats.route_cache_misses,
            "route_cache_evictions": stats.route_cache_evictions,
        }
        if (
            result.ops_completed != self.units
            or stats.messages_delivered != self.sends
            or stats.bytes_delivered != self.send_bytes
        ):
            raise WrongOutput(
                f"{self.name}: {result.ops_completed}/{self.units} ops, "
                f"{stats.messages_delivered}/{self.sends} messages, "
                f"{stats.bytes_delivered}/{self.send_bytes} bytes delivered"
            )
        return digest

    def run_in_spans(self, scheduler: GoalScheduler, tr: Tracer):
        """``GoalScheduler.run()`` one call at a time, as its serial path makes them.

        The scheduler's eventOver callbacks and route picks run inside
        ``backend.loop`` and cannot be told apart from out here.
        """
        with tr.span("backend.setup"):
            scheduler.start()
        with tr.span("backend.loop"):
            scheduler.backend.run(scheduler.completion_callback())
        with tr.span("scheduler.finish"):
            return scheduler.finish()

    def side(self, tr: Tracer, run_wall_s: float, digest: Digest) -> Dict[str, float]:
        if self.backend != "htsim":
            return {}
        # what PacketBackend.setup does to its topology, then one route_table
        # call per distinct pair, earliest op index first (the order the
        # rounds of a collective reach them)
        with tr.span("topology.build"):
            topology = build_topology(self.cfg, self.goal.num_ranks)
        topology.set_route_cache_budget(self.cfg.route_cache_entries)
        topology.use_synthesis = self.cfg.route_synthesis
        first_use: Dict[Tuple[int, int], int] = {}
        for rank in self.goal.ranks:
            for index, op in enumerate(rank.ops):
                if op.is_send:
                    first_use.setdefault((rank.rank, op.peer), index)
        pairs = sorted(first_use, key=first_use.get)
        with tr.span("routing.route_table"):
            for src, dst in pairs:
                topology.route_table(src, dst)
        return {"routing.pairs": len(pairs)}

    def counts(self, digest: Digest) -> Dict[str, float]:
        counts = super().counts(digest)
        counts["schedgen.ops"] = digest["ops_completed"]
        counts[f"{self.loop_layer}.events"] = digest["events"]
        if self.backend == "htsim":
            counts.update(
                {
                    "packet.delivered_ratio": digest["packets_delivered"]
                    / digest["packets_sent"],
                    "packet.trims": digest["packets_trimmed"],
                    "packet.drops": digest["packets_dropped"],
                    "packet.retransmissions": digest["retransmissions"],
                    "packet.ecn_marks": digest["packets_ecn_marked"],
                    "routing.cache_hits": digest["route_cache_hits"],
                    "routing.cache_misses": digest["route_cache_misses"],
                    "routing.cache_evictions": digest["route_cache_evictions"],
                }
            )
        return counts


class AiTrain(Simulation):
    name = "ai_train_htsim"
    backend = "htsim"

    def schedule(self, seed, smoke, tr):
        model = llama_7b().scaled(0.02 if smoke else 0.1)
        par = ParallelismConfig(tp=1, pp=1, dp=16, microbatches=2, global_batch=32)
        with tr.span("tracers.trace"):
            report = LlmTrainer(
                model, par, gpus_per_node=4, iterations=1, seed=seed
            ).trace()
        self.trace_records = report.num_kernels()
        with tr.span("schedgen.convert"):
            return nccl_trace_to_goal(report, gpus_per_node=4)

    def config(self, seed):
        return SimulationConfig(topology="fat_tree", nodes_per_tor=4, seed=seed)

    def side(self, tr, run_wall_s, digest):
        extra = super().side(tr, run_wall_s, digest)
        packet = digest["finish_time_ns"]
        lgs = GoalScheduler(
            self.goal,
            "lgs",
            SimulationConfig(loggops=LogGOPSParams.ai_cluster(), seed=self.cfg.seed),
            validate=False,
        ).run()
        extra["lgs_vs_packet_gap_pct"] = 100.0 * (lgs.finish_time_ns - packet) / packet
        return extra


class HpcHpcg(Simulation):
    name = "hpc_hpcg_lgs"
    backend = "lgs"

    def schedule(self, seed, smoke, tr):
        run = HpcRunConfig(
            num_ranks=16 if smoke else 256, iterations=2 if smoke else 7, seed=seed
        )
        with tr.span("tracers.trace"):
            trace = HPC_APPLICATIONS["hpcg"].trace(run)
        self.trace_records = trace.num_events()
        with tr.span("schedgen.convert"):
            return mpi_trace_to_goal(trace)

    def config(self, seed):
        return SimulationConfig(loggops=LogGOPSParams.hpc_cluster(), seed=seed)


class StorageNdp(Simulation):
    name = "storage_ndp_htsim"
    backend = "htsim"
    #: One trace for every ``--seed``; the module docstring says why.
    TRACE_SEED = 7

    def schedule(self, seed, smoke, tr):
        generator = FinancialWorkloadGenerator(
            seed=self.TRACE_SEED, mean_size_bytes=16384
        )
        with tr.span("tracers.trace"):
            trace = generator.generate(100 if smoke else 2000)
        self.trace_records = len(trace)
        direct_drive = DirectDriveConfig(
            num_clients=4, num_ccs=4, num_bss=8, timescale=0.005
        )
        with tr.span("schedgen.convert"):
            return storage_trace_to_goal(trace, direct_drive)

    def config(self, seed):
        return SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=8,
            oversubscription=8.0,
            cc_algorithm="ndp",
            buffer_size=1 << 18,
            seed=seed,
        )


class ScaleAllreduce(Simulation):
    name = "scale_allreduce2k_htsim"
    backend = "htsim"
    shards = 1

    def schedule(self, seed, smoke, tr):
        # 2048 ranks x 11 rounds = 22 528 host pairs, more than the default
        # route-cache budget of 16 384 entries, so the LRU evicts
        with tr.span("schedgen.convert"):
            return build_collective_schedule(
                "allreduce",
                "recursive_doubling",
                64 if smoke else 2048,
                1024,
                name="allreduce2k",
            )

    def config(self, seed):
        return SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=32,
            collect_message_records=False,
            shards=self.shards,
            seed=seed,
        )


class ScaleAllreduceSharded(ScaleAllreduce):
    name = "scale_allreduce2k_htsim_sh2"
    shards = 2
    loop_layer = "sharded"

    def run_in_spans(self, scheduler, tr):
        with tr.span("sharded.run"):  # the windows run in worker processes
            return scheduler.run()

    def side(self, tr, run_wall_s, digest):
        extra = super().side(tr, run_wall_s, digest)
        topology = build_topology(self.cfg, self.goal.num_ranks)
        with tr.span("sharded.plan"):
            plan_shards(topology, self.goal.num_ranks, self.shards)
        # the serial twin (workload 4) on the same inputs, for the ratio
        serial = GoalScheduler(
            self.goal, self.backend, self.cfg.replace(shards=1), validate=False
        ).run()
        extra["sharded.overhead_ratio"] = run_wall_s / serial.wall_clock_s
        return extra


# -------------------------------------------------------------------- ingest
def same_schedule(a: GoalSchedule, b: GoalSchedule) -> bool:
    return a.num_ranks == b.num_ranks and all(
        x.ops == y.ops and x.preds == y.preds for x, y in zip(a.ranks, b.ranks)
    )


class GoalIngest(Workload):
    """MPI trace to GOAL, then both codecs there and back: no network layer runs."""

    name = "goal_ingest_hpc"

    def setup(self, seed, smoke, tr):
        run = HpcRunConfig(
            num_ranks=8 if smoke else 64, iterations=2 if smoke else 10, seed=seed
        )
        with tr.span("tracers.trace"):
            self.trace = HPC_APPLICATIONS["lulesh"].trace(run)
        self.trace_records = self.trace.num_events()

    def expect(self):
        self.units = mpi_trace_to_goal(self.trace).num_ops()

    def run(self, tr):
        with tr.span("schedgen.convert"):
            goal = mpi_trace_to_goal(self.trace)
        with tr.span("goal.validate"):
            validate_schedule(goal)
        with tr.span("goal.write"):
            text = write_goal(goal)
        with tr.span("goal.parse"):
            parsed = parse_goal(text)
        with tr.span("goal.encode"):
            blob = encode_goal(goal)
        with tr.span("goal.decode"):
            decoded = decode_goal(blob)
        with tr.span("e2e.compare"):
            if not (same_schedule(goal, parsed) and same_schedule(goal, decoded)):
                raise WrongOutput(f"{self.name}: a codec round trip changed the schedule")
        return {
            "ops": goal.num_ops(),
            "edges": goal.num_edges(),
            "text_bytes": len(text),
            "binary_bytes": len(blob),
        }

    def counts(self, digest):
        counts = super().counts(digest)
        counts["schedgen.ops"] = digest["ops"]
        counts["goal.text_bytes"] = digest["text_bytes"]
        counts["goal.binary_bytes"] = digest["binary_bytes"]
        return counts


# --------------------------------------------------------------------- sweep
class PlacementSweep(Workload):
    """Three co-tenant jobs under four placements, two cells at a time."""

    name = "placement_sweep_htsim"
    STRATEGIES = ("packed", "fragmented", "random", "locality")
    CLUSTER_NODES = 64

    def setup(self, seed, smoke, tr):
        ranks = 4 if smoke else 16
        scale = 16 if smoke else 1
        with tr.span("schedgen.convert"):
            schedules = [
                all_to_all(ranks, (1 << 16) // scale, name="a2a0"),
                all_to_all(ranks, (1 << 16) // scale, name="a2a1"),
                build_collective_schedule(
                    "allreduce", "ring", ranks, (1 << 21) // scale, name="ring"
                ),
            ]
        self.jobs = [
            ClusterJob(schedule, arrival_ns=10_000 * index, name=schedule.name)
            for index, schedule in enumerate(schedules)
        ]
        self.seed = seed
        self.cfg = SimulationConfig(
            topology="fat_tree", nodes_per_tor=16, oversubscription=4.0, seed=seed
        )

    def expect(self):
        self.units = len(self.STRATEGIES)
        self.sends = {j.label: j.schedule.op_counts()["send"] for j in self.jobs}

    def run(self, tr):
        with tr.span("sweep.run"):
            entries = interference_sweep(
                self.jobs,
                self.CLUSTER_NODES,
                strategies=self.STRATEGIES,
                configs={"fat_tree_4to1": self.cfg},
                parallel=2,
                seed=self.seed,
            )
        wrong = [
            f"{e.strategy}/{e.job}"
            for e in entries
            if e.messages_delivered != self.sends[e.job]
        ]
        if wrong or len(entries) != len(self.STRATEGIES) * len(self.jobs):
            raise WrongOutput(f"{self.name}: {len(entries)} entries, short: {wrong}")
        return {
            "entries": [
                [e.strategy, e.job, e.runtime_ns, e.isolated_runtime_ns, e.bytes_delivered]
                for e in entries
            ]
        }

    def side(self, tr, run_wall_s, digest):
        # each cell again, serially and a layer at a time; run_cotenant repeats
        # the placement and the merge inside itself, as a pool worker would
        topology = build_topology(self.cfg, self.CLUSTER_NODES)
        requests = [JobRequest(job.schedule, name=job.label) for job in self.jobs]
        for strategy in self.STRATEGIES:
            kwargs = filter_strategy_kwargs(
                strategy, {"seed": self.seed, "topology": topology}
            )
            with tr.span("placement.place"):
                place_jobs(requests, self.CLUSTER_NODES, strategy=strategy, **kwargs)
            with tr.span("cluster.build"):
                build_cotenant_schedule(
                    self.jobs, self.CLUSTER_NODES, strategy=strategy, **kwargs
                )
            with tr.span("sweep.cell"):
                run_cotenant(
                    self.jobs,
                    self.CLUSTER_NODES,
                    strategy=strategy,
                    config=self.cfg,
                    **kwargs,
                )
        return {"sweep.cells": len(self.STRATEGIES)}


WORKLOADS: List[Workload] = [
    AiTrain(),
    HpcHpcg(),
    StorageNdp(),
    ScaleAllreduce(),
    ScaleAllreduceSharded(),
    GoalIngest(),
    PlacementSweep(),
]
