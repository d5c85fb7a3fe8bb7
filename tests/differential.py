"""One differential harness: every fast engine against its reference.

The simulator's numbers rest on each fast engine matching a reference
formulation of the same model exactly.  The references live in ``tests/``
(``packet_oracle.py``, ``loggops_oracle.py``, ``schedule_oracle.py``, the
scalar UGAL below, the serial sharded engine, the delivery-order record
list, the serial sweep), and this module is the one place they are compared:

* :func:`everything` is what a run simulated,
  :meth:`SimulationResult.digest`, plus, by name, the events executed, the
  route-cache counters and the message records in the order the store
  holds them (``order``; the digest holds them as a multiset).  Host wall
  clock and the backend's name are not simulated and are left out.
* :data:`ROWS` is the registry: for each input of :data:`INPUTS`, its
  rows.  A :class:`Row` names a :class:`Pair` (an engine side, a reference
  side, the keys that pair may differ on and the mutant that shows the
  comparison has teeth), an expectation on the engine's output that keeps
  the input in the regime it was chosen for (drops happen, a rendezvous path
  is taken, a run deadlocks), and any keys this input adds to the exemptions.
* :func:`check` runs every row of one input, each side once (a side paired
  with itself twice), and raises :class:`Mismatch` naming the keys that
  differ.  :func:`assert_ledger` is the packet ledger, checked on every
  simulated run.

Sharded runs and parallel sweeps use real worker processes, except on the
heavy ``slow`` grids and the few ``inline`` inputs, whose shards run in this
process through the same driver code (``tests/inline_workers.py``).

The inputs are the scenario lists of the suites this harness replaced plus one
row per benchmark workload at ``--smoke`` size, built by the benchmark's own
``setup`` in ``benchmarks/e2e/workloads.py`` (imported, never edited).

A new optimisation adds its row here (a new :class:`Pair` if its reference is
new, with the keys it may legitimately change in ``exempt``) and its mutant to
``tests/mutants.py``; ``tests/test_differential.py`` runs both.
"""
from __future__ import annotations

import contextlib
import json
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Set, Tuple

import numpy as np
import pytest

from inline_workers import inline_workers
from loggops_oracle import FiveEventLogGOPSBackend
from packet_oracle import PerTransmissionBackend
from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.cluster import ClusterJob, build_cotenant_schedule
from repro.collectives import build_collective_schedule
from repro.goal import (
    GoalBuilder,
    GoalSchedule,
    Op,
    decode_goal,
    encode_goal,
    parse_goal,
    validate_schedule,
    write_goal,
)
from repro.network import LogGOPSParams, SimulationConfig
from repro.network.backend import (
    LINK_COLUMNS,
    ROUTE_CACHE_COUNTERS,
    GroupStats,
    LinkStats,
    MessageRecord,
    MessageRecords,
    NetworkBackend,
    NetworkStats,
    SimulationResult,
)
from repro.network.control_plane import ConvergenceRecord
from repro.network.faults import (
    LINK_DOWN,
    LINK_UP,
    SWITCH_DRAIN,
    SWITCH_UNDRAIN,
    FaultEvent,
    FaultSchedule,
)
from repro.network.loggops import LogGOPSBackend
from repro.network.packet.sharded import _merge_results
from repro.network.routing import AdaptiveRouting
from repro.network.topology import (
    DragonflyTopology,
    FatTreeTopology,
    SlimFlyTopology,
    TorusTopology,
)
from repro.network.topology.base import Topology, pick_route
from repro.schedgen import (
    DirectDriveConfig,
    all_to_all,
    incast,
    mpi_trace_to_goal,
    nccl_trace_to_goal,
    permutation,
    ring_allreduce_microbenchmark,
    storage_trace_to_goal,
)
from repro.scheduler import GoalScheduler, SchedulerDeadlockError
from repro.sweep import (
    collective_sweep,
    default_topology_configs,
    inference_sweep,
    interference_sweep,
    resilience_sweep,
    topology_routing_sweep,
)
from repro.tracers.storage import FinancialWorkloadGenerator
from schedule_oracle import ListScheduler, generated, list_encode_goal, list_write_goal, to_oracle, views


# ---------------------------------------------------------------------------
# what a run simulated
# ---------------------------------------------------------------------------
def everything(result: SimulationResult, events: Optional[int] = None) -> dict:
    """The result's digest, the events executed, the route-cache counters and
    the record order (see the module docstring)."""
    stats = result.stats
    return {
        **result.digest(),
        "events": events,
        **{name: getattr(stats, name) for name in ROUTE_CACHE_COUNTERS},
        "route_cache_lookups": stats.route_cache_hits + stats.route_cache_misses,
        "order": tuple(result.message_records),
    }


#: Every key of :func:`everything`.
KEYS = frozenset(everything(SimulationResult(0, [], NetworkStats())))


def only(*kept: str) -> FrozenSet[str]:
    """Exempt every key but ``kept``."""
    return KEYS - set(kept)


def assert_ledger(stats: NetworkStats) -> None:
    """Every injected DATA packet ends exactly one way (a trimmed header
    arrives, but as a NACK trigger, not as a delivery)."""
    assert stats.packets_sent == (
        stats.packets_delivered
        + stats.packets_dropped
        + stats.packets_trimmed
        + stats.packets_lost_to_faults
        + stats.packets_blackholed
    ), "packet ledger must balance"


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Pair:
    engine: str
    #: A pair of a side with itself compares two independent runs.
    reference: str
    #: Keys this engine may legitimately report differently.
    exempt: FrozenSet[str] = frozenset()
    #: The entries of ``tests/mutants.py`` this comparison must catch.
    mutants: Tuple[str, ...] = ()


def _completes(out) -> bool:
    return "deadlock" not in out


class Row(NamedTuple):
    pair: Pair
    #: Holds the engine's output to the regime the input was chosen for.
    expect: Callable[[object], bool] = _completes
    #: Keys this input may differ on, on top of the pair's.
    exempt: FrozenSet[str] = frozenset()


class Mismatch(AssertionError):
    """An engine and its reference disagree on a kept key."""


INPUTS: Dict[str, Callable[[], object]] = {}
ROWS: Dict[str, Tuple[Row, ...]] = {}
#: Heavy shard grids; ``-m slow_sharded`` selects them.
SLOW: Set[str] = set()
#: Inputs whose shards run in this process (``tests/inline_workers.py``);
#: every other sharded run and parallel sweep uses real worker processes.
INLINE: Set[str] = set()


def register(name, inputs, *rows: Row, slow=False, inline=False):
    """Register ``inputs()`` under ``name`` with the rows that run on it.
    A ``slow`` input also runs inline."""
    assert name not in INPUTS and all(isinstance(row, Row) for row in rows), name
    INPUTS[name] = inputs
    ROWS[name] = rows
    if slow:
        SLOW.add(name)
    if slow or inline:
        INLINE.add(name)


def check(name: str) -> None:
    """Run every row registered on input ``name``; each side runs once."""
    inputs = INPUTS[name]()
    outputs = {}

    def side(key):
        if key not in outputs:
            outputs[key] = SIDES[key](inputs)
        return outputs[key]

    with inline_workers() if name in INLINE else contextlib.nullcontext():
        for row in ROWS[name]:
            pair, exempt = row.pair, row.pair.exempt | row.exempt
            engine = side(pair.engine)
            reference = SIDES[pair.reference](inputs) if pair.reference == pair.engine else side(pair.reference)
            if isinstance(engine, dict):
                engine, reference = ({k: v for k, v in out.items() if k not in exempt} for out in (engine, reference))
            if engine != reference:
                keys = engine.keys() | reference.keys() if isinstance(engine, dict) else ()
                differ = sorted(str(k) for k in keys if engine.get(k) != reference.get(k))
                raise Mismatch(f"{name}: {pair.engine} != {pair.reference} on {differ}")
            assert row.expect(side(pair.engine)), f"{name}: {pair.engine} left the input's regime"


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------
class Sim(NamedTuple):
    schedule: object
    config: SimulationConfig
    op_groups: Optional[list] = None


def _run(scheduler):
    """Everything ``scheduler`` simulates, or the deadlock it ends in."""
    try:
        result = scheduler.run()
    except SchedulerDeadlockError as exc:
        return {"deadlock": str(exc), "stuck": exc.stuck_per_rank}
    assert_ledger(result.stats)
    return everything(result, scheduler.events_executed)


def _simulate(backend, sim, shards=None):
    config = sim.config if shards is None else sim.config.replace(shards=shards)
    return _run(GoalScheduler(sim.schedule, backend, config, validate=False, op_groups=sim.op_groups))


def _per_transmission(sim):
    assert sim.config.link_latency >= 1, "the per-transmission oracle's scope"
    return _simulate(PerTransmissionBackend(), sim)


def _cells(side):
    return lambda cells: {k: side(cell) for k, cell in enumerate(cells)}


def _packet_cells(side):
    """``_cells`` less each cell's ``events``: the event-per-transmission
    oracle executes more by construction."""
    return _cells(lambda sim: {k: v for k, v in side(sim).items() if k != "events"})


def _list_path(spied):
    """What the record list was: one backend's list, or the shards' lists
    concatenated in shard order and stably sorted on the merge key."""
    if len(spied) == 1:
        return spied[0]
    merged = [m for shard in sorted(spied) for m in spied[shard]]
    return sorted(merged, key=lambda m: (m.completion_time, m.src, m.dst, m.tag))


@contextlib.contextmanager
def delivery_spy():
    """Per shard id (0 off the sharded engine), the records the list path
    appended, in delivery order: every ``_message_delivered`` call and every
    eager LogGOPS arrival, which inlines it."""
    spied = {}
    delivered = NetworkBackend._message_delivered
    arrived = LogGOPSBackend._on_arrival

    def message_delivered(self, src, dst, size, tag, post_time, time, op_id):
        record = MessageRecord(src, dst, size, tag, post_time, time)
        spied.setdefault(getattr(self, "shard_id", 0), []).append(record)
        delivered(self, src, dst, size, tag, post_time, time, op_id)

    def on_arrival(self, time, payload):
        spied.setdefault(0, []).append(MessageRecord(*payload[:5], time))
        arrived(self, time, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NetworkBackend, "_message_delivered", message_delivered)
        patch.setattr(LogGOPSBackend, "_on_arrival", on_arrival)
        yield spied


def _spied(backend):
    """The run with its records in the order the list path built them."""

    def side(sim):
        with inline_workers(), delivery_spy() as spied:  # the spy sees this process only
            out = _simulate(backend, sim)
        assert len(spied) == sim.config.shards
        return {**out, "order": tuple(_list_path(spied))}

    return side


def _merged(per_shard):
    one_rank = GoalBuilder(1, name="empty").build()
    shards = [
        (SimulationResult(0, [0], NetworkStats(), MessageRecords.from_columns(np.array(rs, dtype=np.uint64).reshape(-1, 6))), 0)
        for rs in per_shard
    ]
    return list(_merge_results(shards, one_rank, 0.0).message_records)


def _codecs(gen):
    text, blob = write_goal(gen.columnar), encode_goal(gen.columnar)
    return {
        "text": text,
        "blob": blob,
        "parsed": views(parse_goal(text, name=gen.columnar.name)),
        "decoded": views(decode_goal(blob)),
    }


def _list_codecs(gen):
    return {
        "text": list_write_goal(gen.oracle),
        "blob": list_encode_goal(gen.oracle),
        "parsed": views(gen.oracle),
        "decoded": views(gen.oracle),
    }


def _enumerated_valiant(topo, src, dst, rng, count):
    """Valiant candidates whose legs are drawn from the enumeration reference.

    The base composition without the route tables or the ``pick_minimal``
    hook: a random intermediate host, then one uniform draw over
    ``routes()`` for each leg.  Router-level detours (torus, Slim Fly) are
    the topology's own and are taken as they are."""
    if type(topo).valiant_routes is not Topology.valiant_routes:
        return topo.valiant_routes(src, dst, rng, count=count)
    if topo.num_hosts <= 2:
        return ()
    candidates = []
    for _ in range(count):
        via = int(rng.integers(topo.num_hosts))
        while via == src or via == dst:
            via = int(rng.integers(topo.num_hosts))
        leg1 = pick_route(topo.routes(src, via), rng)
        leg2 = pick_route(topo.routes(via, dst), rng)
        candidates.append(leg1 + leg2)
    return tuple(candidates)


def _scalar_ugal(topo, rng, src, dst, loads, count=2):
    """UGAL link by link and candidate by candidate: the oracle for
    :class:`AdaptiveRouting`'s one cost formula.  Candidates, minimal and
    Valiant, come from the enumeration reference, not the route tables or
    the ``pick_minimal`` hook."""

    def cost(route):
        return (1 + sum(int(loads[link]) for link in route)) * len(route)

    minimal = topo.routes(src, dst)
    costs = [cost(r) for r in minimal]
    min_cost = min(costs)
    # random choice among cost-tied minimal candidates (ECMP spreading)
    best_min = pick_route([r for r, c in zip(minimal, costs) if c == min_cost], rng)
    valiant = _enumerated_valiant(topo, src, dst, rng, count)
    if not valiant:
        return best_min
    best_val = min(valiant, key=cost)  # first minimum
    return best_val if cost(best_val) < min_cost else best_min


def _ugal(scalar):
    """200 picks under random loads with many ties, and the generator's state after."""

    def side(topo):
        draw, rng = np.random.default_rng(17), np.random.default_rng(23)
        strategy = None if scalar else AdaptiveRouting(topo, rng)
        routes = []
        for _ in range(200):
            src, dst = (int(x) for x in draw.choice(topo.num_hosts, size=2, replace=False))
            # few distinct levels: cost ties (which consume randomness) are common
            loads = draw.choice([0, 0, 4096, 1 << 16, 1 << 20], size=len(topo.links))
            if scalar:
                routes.append((src, dst, _scalar_ugal(topo, rng, src, dst, loads)))
            else:
                routes.append((src, dst, strategy.select_route(src, dst, 0, loads)))
        return {
            "routes": routes,
            "rng": rng.bit_generator.state,
            "diverted": sum(route not in topo.routes(src, dst) for src, dst, route in routes),
        }

    return side


def _sweep(parallel):
    """A sweep's whole records: every key, digest and derived value."""
    return lambda call: call[0](**call[1], parallel=parallel)


def _issue_for_later(backend_cls):
    """The backend API allows a ready time after now: such an op is a heap
    event, as in the oracle, not a ready entry."""

    def side(config):
        backend = backend_cls()
        backend.setup(2, config)
        done = []
        backend.on_complete = handler = lambda time, payload: done.append((time, *payload))
        backend.issue_send(0, 1, 64, 0, 0, 0, 5_000)  # same CPU stream as the next
        backend.issue_send(0, 1, 64, 1, 0, 1, 0)
        backend.issue_recv(1, 0, 64, 0, 0, 2, 0)
        backend.issue_recv(1, 0, 64, 1, 0, 3, 0)
        backend.run(handler)
        return {"done": done, "records": tuple(backend.records)}

    return side


#: The 0 ns incast rows' results as recorded before the burst queue's ledger
#: moved onto its packet chain, one flat dict each (the harness's shape
#: then: ``finish``, ``rank_finish``, ``ops``, ``records``, ``groups``,
#: ``links``, ``convergence``, ``events`` and every ``NetworkStats`` field);
#: see :func:`pin_key` and :func:`_pinned`.
PINNED_0NS = Path(__file__).with_name("pinned_0ns.json")


def pin_key(sim) -> str:
    """The entry of :data:`PINNED_0NS` that holds ``sim``'s recorded run."""
    return f"{sim.config.cc_algorithm}-shards{sim.config.shards}"


def _pinned(sim):
    """``sim``'s recorded run, rebuilt as a result, through :func:`everything`."""
    pin = json.loads(PINNED_0NS.read_text())[pin_key(sim)]
    links = pin["links"]
    result = SimulationResult(
        pin["finish"],
        pin["rank_finish"],
        NetworkStats(**{f.name: pin[f.name] for f in fields(NetworkStats)}),
        MessageRecords.from_columns(np.array(pin["records"], dtype=np.uint64).reshape(-1, 6)),
        pin["ops"],
        groups={int(g): GroupStats(**s) for g, s in pin["groups"].items()},
        links=LinkStats(
            tuple(links["names"]),
            *(np.array(links[c], dtype=np.int64) for c in LINK_COLUMNS),
            {int(g): np.array(b, dtype=np.int64) for g, b in links["group_bytes"].items()},
        ),
        convergence_records=[ConvergenceRecord(**r) for r in pin["convergence"]],
    )
    return everything(result, pin["events"])


#: Each side maps an input to what is compared.
SIDES: Dict[str, Callable[[object], object]] = {
    "htsim": lambda sim: _simulate("htsim", sim),
    "pinned": _pinned,
    "per-transmission": _per_transmission,
    "lgs": lambda sim: _simulate("lgs", sim),
    "five-event": lambda sim: _simulate(FiveEventLogGOPSBackend(), sim),
    "lgs cells": _cells(lambda sim: _simulate("lgs", sim)),
    "five-event cells": _cells(lambda sim: _simulate(FiveEventLogGOPSBackend(), sim)),
    "htsim cells": _packet_cells(lambda sim: _simulate("htsim", sim)),
    "per-transmission cells": _packet_cells(_per_transmission),
    "lgs api": _issue_for_later(LogGOPSBackend),
    "five-event api": _issue_for_later(FiveEventLogGOPSBackend),
    **{
        ("serial" if k == 1 else f"shards={k}"): (lambda sim, k=k: _simulate("htsim", sim, shards=k))
        for k in (1, 2, 3, 4)
    },
    "lgs list path": _spied("lgs"),
    "htsim list path": _spied("htsim"),
    "merge": _merged,
    "list merge": lambda per_shard: _list_path(dict(enumerate(per_shard))),
    "columnar": lambda gen: views(gen.columnar),
    "list": lambda gen: views(gen.oracle),
    "codecs": _codecs,
    "list codecs": _list_codecs,
    **{
        f"columnar {backend}": (lambda gen, backend=backend: _simulate(backend, Sim(gen.columnar, gen.config)))
        for backend in ("lgs", "htsim")
    },
    **{
        f"list {backend}": (lambda gen, backend=backend: _run(ListScheduler(gen.oracle, gen.columnar, backend, gen.config)))
        for backend in ("lgs", "htsim")
    },
    "ugal": _ugal(scalar=False),
    "scalar ugal": _ugal(scalar=True),
    "serial sweep": _sweep(None),
    "parallel=2": _sweep(2),
    "parallel=3": _sweep(3),
}

# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------
#: The event-per-transmission oracle executes more events by construction.
PACKET = Pair(
    "htsim",
    "per-transmission",
    frozenset({"events"}),
    ("ledger-retires-at-departure", "turnaround-drops-ecn-echo", "load-view-skips-drain"),
)
PACKET_CELLS = Pair("htsim cells", "per-transmission cells", mutants=("ready-jumps-heap",))
LOGGOPS = Pair("lgs", "five-event", mutants=("seq-blind-ready-queue",))
LOGGOPS_CELLS = Pair("lgs cells", "five-event cells", mutants=("seq-blind-ready-queue",))
LOGGOPS_API = Pair("lgs api", "five-event api")
HTSIM_TWICE = Pair("htsim", "htsim")
#: Where no oracle reaches (``link_latency=0``), the run as first recorded.
PINNED = Pair("htsim", "pinned", mutants=("tie-bytes-stop-at-delivery",))
LGS_TWICE = Pair("lgs", "lgs")
#: A shard cannot share its neighbour's ACK-route lookup, so only the total
#: of route-cache hits and misses is layout-invariant.
CACHE_SPLIT = frozenset({"route_cache_hits", "route_cache_misses"})


def shards(engine: int, reference: int, mutants: Tuple[str, ...] = ()) -> Pair:
    """The packet engine at two shard counts (``serial`` at 1).  Merged
    records come out in merge-key order, serial ones in delivery order, so
    the shard family compares them as the digest's multiset only."""
    name = lambda k: "serial" if k == 1 else f"shards={k}"  # noqa: E731
    return Pair(name(engine), name(reference), CACHE_SPLIT | {"order"}, mutants)


RECORDS_LGS = Pair("lgs", "lgs list path")
RECORDS_HTSIM = Pair("htsim", "htsim list path")
MERGE = Pair("merge", "list merge", mutants=("unstable-merge-sort",))
SCHEDULE = Pair("columnar", "list")
CODECS = Pair("codecs", "list codecs")
SCHEDULER_LGS = Pair("columnar lgs", "list lgs")
SCHEDULER_HTSIM = Pair("columnar htsim", "list htsim")
UGAL = Pair("ugal", "scalar ugal")
SWEEP2 = Pair("parallel=2", "serial sweep")
SWEEP3 = Pair("parallel=3", "serial sweep")


# ---------------------------------------------------------------------------
# inputs: the packet engine
# ---------------------------------------------------------------------------
# The per-transmission oracle is scoped to ``link_latency >= 1`` (see its
# module docstring); at 0 the engine's tie rule is the definition, so there
# the engine is held to its ledger, to itself and to its recorded run.
_LOSSY = dict(nodes_per_tor=4, buffer_size=1 << 16)


def _drops_or_ecn(out):
    return out["packets_dropped"] > 0 or out["packets_ecn_marked"] > 0


def _drops_or_trims(out):
    return out["packets_dropped"] > 0 or out["packets_trimmed"] > 0


for _routing in ("minimal", "valiant", "adaptive"):
    register(
        f"packet/alltoall8-{_routing}",
        lambda r=_routing: Sim(all_to_all(8, 1 << 14), SimulationConfig(nodes_per_tor=4, routing=r, seed=3)),
        Row(PACKET),
    )
for _cc in ("mprdma", "dctcp", "swift", "fixed"):
    register(
        f"packet/incast12-{_cc}",
        lambda cc=_cc: Sim(incast(12, 1 << 19), SimulationConfig(cc_algorithm=cc, **_LOSSY)),
        Row(PACKET, _drops_or_ecn),
    )
register(
    "packet/incast12-ndp",
    lambda: Sim(incast(12, 1 << 19), SimulationConfig(cc_algorithm="ndp", **_LOSSY)),
    Row(PACKET, lambda out: out["packets_trimmed"] > 0),
)
for _cc in ("dctcp", "ndp"):
    # the edge of the oracle's scope: deliveries land 1 ns after the
    # transmission completes, so same-instant ties are everywhere
    register(
        f"packet/incast12-{_cc}-1ns",
        lambda cc=_cc: Sim(incast(12, 1 << 19), SimulationConfig(cc_algorithm=cc, link_latency=1, **_LOSSY)),
        Row(PACKET, _drops_or_trims),
    )
    for _shards in (1, 2):
        register(
            f"packet/incast12-{_cc}-0ns-shards{_shards}",
            lambda cc=_cc, k=_shards: Sim(
                incast(12, 1 << 19), SimulationConfig(cc_algorithm=cc, link_latency=0, shards=k, **_LOSSY)
            ),
            Row(
                HTSIM_TWICE,
                lambda out, cc=_cc: out["packets_trimmed" if cc == "ndp" else "packets_dropped"] > 0
                and out["messages_delivered"] == 11
                and out["bytes_delivered"] == 11 * (1 << 19),
            ),
            Row(PINNED),
            inline=True,  # a 0 ns lookahead means a barrier per instant
        )
for _topology, _extra in (
    ("torus", {"torus_dims": (4, 4), "torus_hosts_per_node": 1}),
    ("slimfly", {"slimfly_q": 5, "slimfly_hosts_per_router": 1}),
):
    register(
        f"packet/permutation16-adaptive-{_topology}",
        lambda t=_topology, x=_extra: Sim(
            permutation(16, 1 << 16, seed=5), SimulationConfig(topology=t, routing="adaptive", **x)
        ),
        Row(PACKET),
    )
# A 128-host 4:1 fat tree has 320 links.  An adaptive pick weighs the 4
# minimal and 2 Valiant candidates (32 links): the engine reads occupancy
# link by link where the oracle builds the whole array, with queues holding
# bytes when later rounds pick.  Valiant draws every leg in closed form.
for _routing in ("valiant", "adaptive"):
    register(
        f"packet/allreduce128x64K-{_routing}",
        lambda r=_routing: Sim(
            allreduce(128, 1 << 16), SimulationConfig(nodes_per_tor=16, oversubscription=4, routing=r, seed=3)
        ),
        Row(PACKET, lambda out: out["packets_ecn_marked"] > 0),
    )
register(
    "packet/alltoall8-adaptive-seed11",
    lambda: Sim(all_to_all(8, 1 << 15), SimulationConfig(nodes_per_tor=4, routing="adaptive", seed=11)),
    Row(HTSIM_TWICE),
)


def _cores_down_at_30us():
    names = [f"tor{t}->core{c}" for t in (0, 1) for c in (0, 1, 2)]
    names += [f"core{c}->tor{t}" for t in (0, 1) for c in (0, 1, 2)]
    faults = FaultSchedule(events=tuple(FaultEvent(30_000, LINK_DOWN, n) for n in names))
    return Sim(all_to_all(8, 1 << 20), SimulationConfig(topology="fat_tree", nodes_per_tor=4, faults=faults))


register("packet/alltoall8x1M-cores-down", _cores_down_at_30us, Row(PACKET, lambda out: out["packets_rerouted"] > 0))


# ---------------------------------------------------------------------------
# inputs: the LogGOPS engine
# ---------------------------------------------------------------------------
def _hpc(app, ranks=32, iterations=2, seed=1):
    run = HpcRunConfig(num_ranks=ranks, iterations=iterations, seed=seed)
    return mpi_trace_to_goal(HPC_APPLICATIONS[app].trace(run))


_EAGER = LogGOPSParams.ai_cluster()  # S = 0: every message eager
_RENDEZVOUS = LogGOPSParams(L=3000, o=6000, g=0, G=0.18, S=1000)  # halos rendezvous
_PROTOCOLS = {"eager": _EAGER, "rendezvous": _RENDEZVOUS}


def _delivers(out):
    return out["messages_delivered"] > 0


def _hpc_cell(app, params):
    schedule = _hpc(app)
    if (app, params) == ("lulesh", _RENDEZVOUS):  # the cell takes both paths
        sizes = {size for rank in schedule.ranks for kind, size in zip(rank.kind, rank.size) if kind == 0}
        assert min(sizes) <= _RENDEZVOUS.S < max(sizes)
    return Sim(schedule, SimulationConfig(loggops=params, seed=1))


for _app in sorted(HPC_APPLICATIONS):
    for _protocol, _params in _PROTOCOLS.items():
        register(f"loggops/{_app}-{_protocol}", lambda a=_app, p=_params: _hpc_cell(a, p), Row(LOGGOPS, _delivers))
for _label, _params in (
    ("O>0", LogGOPSParams(L=3700, o=200, g=5, G=0.04, O=0.01, S=0)),
    ("o=0", LogGOPSParams(L=3700, o=0, g=5, G=0.04, S=0)),
    ("g>0", LogGOPSParams(L=1500, o=200, g=900, G=0.04, S=4096)),  # the gap binds
):
    register(
        f"loggops/hpcg-{_label}",
        lambda p=_params: Sim(_hpc("hpcg"), SimulationConfig(loggops=p, seed=2)),
        Row(LOGGOPS),
    )


def _multi_stream(params):
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=16)
    report = LlmTrainer(llama_7b().scaled(0.02), par, gpus_per_node=4, seed=3).trace()
    schedule = nccl_trace_to_goal(report, gpus_per_node=4)
    assert any(len(set(rank.cpu)) > 1 for rank in schedule.ranks)
    return Sim(schedule, SimulationConfig(loggops=params, seed=3))


register("loggops/llama-multi-stream-eager", lambda: _multi_stream(_EAGER), Row(LOGGOPS))
register(
    "loggops/llama-multi-stream-O>0",
    lambda: _multi_stream(LogGOPSParams(L=1500, o=300, g=5, G=0.04, O=0.002, S=1 << 16)),
    Row(LOGGOPS),
)


def _topology_aware(shape, params):
    config = SimulationConfig(routing="adaptive", loggops=params, seed=4, **shape)
    assert config.loggops_topology_enabled()
    return Sim(_hpc("hpcg"), config)


for _shape_name, _shape in (
    ("torus", dict(topology="torus", torus_dims=(4, 4), torus_hosts_per_node=2)),
    ("slimfly", dict(topology="slimfly")),
):
    for _protocol, _params in _PROTOCOLS.items():
        register(
            f"loggops/hpcg-adaptive-{_shape_name}-{_protocol}",
            lambda s=_shape, p=_params: _topology_aware(s, p),
            Row(LOGGOPS),
        )


def _healthy_records_differ(sim):
    """The faults move traffic: the same input without them delivers differently."""
    healthy = _simulate("lgs", sim._replace(config=sim.config.replace(faults=FaultSchedule())))
    return lambda out: out["message_records"] != healthy["message_records"]


def _lulesh_flaps(control_plane):
    # lulesh's messages run from about 0.65 ms to 2.85 ms (hpcg's from
    # 0.36 ms): the events and the ramps land in the middle of the traffic
    faults = FaultSchedule(
        events=tuple(
            FaultEvent(t, kind, link)
            for t, kind in ((800_000, LINK_DOWN), (1_600_000, LINK_UP))
            for link in ("tor0->core0", "core0->tor0")
        )
    )
    config = SimulationConfig(
        nodes_per_tor=4, faults=faults, control_plane=control_plane,
        cp_propagation_ns=100_000, loggops=_RENDEZVOUS, seed=5,
    )
    return Sim(_hpc("lulesh"), config)


def _hpcg_routed_fault(control_plane):
    # a fat tree keeps a route for every pair with one core cable down
    faults = FaultSchedule(
        events=(FaultEvent(500_000, LINK_DOWN, "tor0->core0"), FaultEvent(500_000, LINK_DOWN, "core0->tor0"))
    )
    config = SimulationConfig(
        nodes_per_tor=4, loggops_use_topology=True, routing="adaptive", faults=faults,
        control_plane=control_plane, cp_propagation_ns=100_000, loggops=_EAGER, seed=6,
    )
    return Sim(_hpc("hpcg"), config)


for _cp in ("oracle", "dv", "ls"):
    register(
        f"loggops/lulesh-flap-{_cp}",
        lambda cp=_cp: _lulesh_flaps(cp),
        Row(
            LOGGOPS,
            lambda out, cp=_cp: len(out["convergence_records"]) == (0 if cp == "oracle" else 4)
            and _healthy_records_differ(_lulesh_flaps(cp))(out),
        ),
    )
for _cp in ("dv", "ls"):
    register(
        f"loggops/hpcg-routed-fault-{_cp}",
        lambda cp=_cp: _hpcg_routed_fault(cp),
        Row(
            LOGGOPS,
            lambda out, cp=_cp: bool(out["convergence_records"])
            and _healthy_records_differ(_hpcg_routed_fault(cp))(out),
        ),
    )
def _tag_grouped(app, width, config):
    """An HPC trace with one op group per ``width`` tags, read from each
    rank's tag column."""
    schedule = _hpc(app)
    return Sim(schedule, config, [[tag // width for tag in rank.tag] for rank in schedule.ranks])


def _senders(out):
    """The groups that sent a delivered message."""
    return [g["group"] for g in out["groups"] if g["messages_delivered"]]


register(
    "loggops/icon-job-tags-records-off",
    lambda: _tag_grouped(
        "icon",
        1000,
        SimulationConfig(
            topology="torus", torus_dims=(4, 4), torus_hosts_per_node=2,
            collect_message_records=False, loggops=_RENDEZVOUS, seed=7,
        ),
    ),
    Row(LOGGOPS, lambda out: out["order"] == () and bool(_senders(out))),
)
register(
    "loggops/hpcg-job-tags",
    lambda: _tag_grouped("hpcg", 4, SimulationConfig(loggops=_EAGER, seed=7)),
    Row(LOGGOPS, lambda out: len(_senders(out)) > 1),
)


def _cyclic_deadlock(params):
    b = GoalBuilder(3)
    for r in range(3):
        recv = b.rank(r).recv(4096, src=(r - 1) % 3, tag=1)
        b.rank(r).send(4096, dst=(r + 1) % 3, tag=1, requires=[recv])
    return Sim(b.build(), SimulationConfig(loggops=params))


for _protocol, _params in _PROTOCOLS.items():
    register(
        f"loggops/cyclic-deadlock-{_protocol}",
        lambda p=_params: _cyclic_deadlock(p),
        Row(LOGGOPS, lambda out: out.get("stuck") == {0: 2, 1: 2, 2: 2}),
    )


def _random_dag(rng: random.Random, ops=(4, 14)):
    """A few ranks of calcs and matched send/recv pairs on two CPU streams,
    each op depending on up to three earlier ops of its rank — durations and
    latencies in whole microseconds, so many events share an instant.
    Cross-rank dependency cycles (deadlocks) are allowed.  ``ops`` bounds
    the number of draws (a draw is a calc or a send/recv pair)."""
    ranks = rng.randint(2, 4)
    b = GoalBuilder(ranks)
    handles = [[] for _ in range(ranks)]

    def requires(r):
        if not handles[r] or rng.random() < 0.2:
            return []
        return rng.sample(handles[r], min(len(handles[r]), rng.randint(1, 3)))

    for _ in range(rng.randint(*ops)):
        cpu = rng.randint(0, 1)
        if rng.random() < 0.35:
            r = rng.randrange(ranks)
            handles[r].append(b.rank(r).calc(rng.choice((0, 1000, 2000)), cpu=cpu, requires=requires(r)))
            continue
        src, dst = rng.sample(range(ranks), 2)
        tag, size = rng.randint(0, 1), rng.choice((8, 64, 4096))
        handles[src].append(b.rank(src).send(size, dst=dst, tag=tag, cpu=cpu, requires=requires(src)))
        handles[dst].append(b.rank(dst).recv(size, src=src, tag=tag, cpu=rng.randint(0, 1), requires=requires(dst)))
    return b.build()


def _fuzz_cells(seed, cells=25):
    rng = random.Random(seed)
    return [
        Sim(
            _random_dag(rng),
            SimulationConfig(
                loggops=LogGOPSParams(
                    L=rng.choice((0, 1000)), o=rng.choice((0, 1000)), g=rng.choice((0, 1000)),
                    G=0.0, S=rng.choice((0, 0, 64)),
                )
            ),
        )
        for _ in range(cells)
    ]


for _seed in range(8):
    register(
        f"loggops/tie-heavy-fuzz-{_seed}",
        lambda s=_seed: _fuzz_cells(s),
        Row(LOGGOPS_CELLS, lambda out: any("deadlock" not in cell for cell in out.values())),
    )


# The packet engine on bigger random DAGs: host overheads of 0 or 1 us tie
# with the whole-us calcs, so a completion, a calc reserving a CPU stream
# and a send's overhead on that stream often share an instant; links are
# 1 ns (the oracle's scope) or 1 us.
def _packet_fuzz_cells(seed, cells=25):
    rng = random.Random(seed)
    return [
        Sim(
            _random_dag(rng, ops=(30, 60)),
            SimulationConfig(
                nodes_per_tor=2, host_overhead=rng.choice((0, 1000)), link_latency=rng.choice((1, 1000))
            ),
        )
        for _ in range(cells)
    ]


for _seed in range(4):
    register(
        f"packet/tie-heavy-fuzz-{_seed}",
        lambda s=_seed: _packet_fuzz_cells(s),
        Row(PACKET_CELLS, lambda out: any("deadlock" not in cell for cell in out.values())),
    )
register(
    "loggops/issued-for-later",
    lambda: SimulationConfig(loggops=_EAGER),
    Row(LOGGOPS_API, lambda out: out["done"][0] == (200, 0, 1)),
)
for _name, _sim in (
    ("eager-flat-L", lambda: Sim(all_to_all(16, 1 << 16), SimulationConfig())),
    ("rendezvous", lambda: Sim(all_to_all(16, 1 << 16), SimulationConfig(loggops=LogGOPSParams.hpc_cluster()))),
    ("coupled-incast", lambda: Sim(incast(16, 1 << 18), SimulationConfig())),
    *(
        (
            f"routed-{r}",
            lambda r=r: Sim(
                all_to_all(8, 1 << 14),
                SimulationConfig(routing=r, topology="torus", torus_dims=(2, 2), torus_hosts_per_node=2),
            ),
        )
        for r in ("minimal", "valiant", "adaptive")
    ),
    ("ring-allreduce", lambda: Sim(ring_allreduce_microbenchmark(8, 1 << 20), SimulationConfig())),
):
    register(f"loggops/twice-{_name}", _sim, Row(LGS_TWICE, _delivers))


# ---------------------------------------------------------------------------
# inputs: the sharded packet engine against the serial one
# ---------------------------------------------------------------------------
# Configurations that draw no randomness are bit-identical to the serial
# engine; those that do (multi-candidate ECMP, Valiant, re-picks) are
# identical across every shard count >= 2, which draw from keyed streams the
# serial engine does not share; load-adaptive routing under shards reads
# barrier snapshots, a documented approximation of the serial engine's live
# loads, so against it only conserved totals are compared.
def allreduce(ranks=16, size=4096):
    return build_collective_schedule("allreduce", "recursive_doubling", ranks, size, name="shard-parity")


def flap(link, down_ns, up_ns):
    return FaultSchedule(events=(FaultEvent(down_ns, LINK_DOWN, link), FaultEvent(up_ns, LINK_UP, link)))


_INVARIANT = (shards(3, 2, mutants=("boundary-route-from-replica",)), shards(4, 2))
_CONSERVED = only("messages_delivered", "bytes_delivered")

for _name, _config in (
    ("fat_tree-minimal-mprdma", SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma")),
    ("dragonfly-minimal-swift", SimulationConfig(topology="dragonfly", routing="minimal", cc_algorithm="swift")),
    ("torus-minimal-ndp", SimulationConfig(topology="torus", routing="minimal", cc_algorithm="ndp")),
):
    register(f"sharded/allreduce16-{_name}", lambda c=_config: Sim(allreduce(), c), Row(shards(2, 1)), Row(shards(4, 1)))
for _name, _config in (
    ("dragonfly-valiant", SimulationConfig(topology="dragonfly", routing="valiant", cc_algorithm="mprdma", seed=7)),
    (
        "fat_tree-multipath-ecmp",
        SimulationConfig(topology="fat_tree", nodes_per_tor=4, routing="minimal", cc_algorithm="dctcp", seed=7),
    ),
):
    register(f"sharded/allreduce16-{_name}", lambda c=_config: Sim(allreduce(), c), *map(Row, _INVARIANT))
for _name, _extra, _slow in (
    ("drops", {}, False),
    ("drops-flap", dict(nodes_per_tor=8, faults=flap("tor0->core0", 3000, 9000)), True),
):
    # tiny buffers force drops (while a link flaps): every loss class lands
    # in its own ledger column and the sum closes; drop *timing* may shift a
    # window under the deferred-loss barrier, so payload is what matches
    register(
        f"sharded/alltoall16-{_name}",
        lambda x=_extra: Sim(
            all_to_all(16, 1 << 14),
            SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma", buffer_size=8192, **x),
        ),
        *(Row(shards(k, 1), lambda out: out["packets_dropped"] > 0, _CONSERVED) for k in (2, 4)),
        slow=_slow,
    )


def _cotenant():
    jobs = [ClusterJob(all_to_all(4, 1 << 12, name="job-a")), ClusterJob(all_to_all(4, 1 << 12, name="job-b"))]
    plan = build_cotenant_schedule(jobs, strategy="packed")
    config = SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma")
    return Sim(plan.schedule, config, plan.op_groups)


# 4 shards over two 4-rank jobs: each job spans two shards, so the merge must
# *fold* per-shard GroupStats, not just relabel them, and sum the per-link
# record, group bytes included
register(
    "sharded/cotenant-job-stats",
    _cotenant,
    Row(shards(4, 1, mutants=("merge-keeps-shard0-links",)), lambda out: bool(_senders(out))),
)
register(
    "sharded/allreduce16-op-groups",
    lambda: Sim(
        allreduce(),
        SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma"),
        [[rank % 2] * len(ops) for rank, ops in enumerate(allreduce().ranks)],
    ),
    Row(shards(2, 1), lambda out: {g["group"] for g in out["groups"]} == {0, 1}),
)

# fault grids: identical across every shard count >= 2, payload conserved
# against the serial engine even when timing is not
for _name, _config in (
    ("fat_tree-minimal-flap", SimulationConfig(
        topology="fat_tree", nodes_per_tor=8, routing="minimal", cc_algorithm="mprdma",
        faults=flap("tor0->core0", 3000, 9000))),
    ("fat_tree-valiant-flap", SimulationConfig(
        topology="fat_tree", nodes_per_tor=8, routing="valiant", cc_algorithm="dctcp",
        faults=flap("tor0->core0", 3000, 9000))),
    ("fat_tree-switch-drain", SimulationConfig(
        topology="fat_tree", nodes_per_tor=8, routing="minimal", cc_algorithm="mprdma",
        faults=FaultSchedule(events=(FaultEvent(3000, SWITCH_DRAIN, 18), FaultEvent(9000, SWITCH_UNDRAIN, 18))))),
    ("dragonfly-valiant-flap", SimulationConfig(
        topology="dragonfly", routing="valiant", cc_algorithm="swift", faults=flap("r0.0->r0.1", 3000, 9000))),
    # a 1 ns flap: the mask change itself is (almost) unobservable but the
    # re-pick sweep still fires, and packets crossing shards must keep the
    # route they were sent on (the boundary-route-from-replica mutant)
    ("dragonfly-1ns-flap", SimulationConfig(
        topology="dragonfly", routing="valiant", cc_algorithm="swift", faults=flap("r0.0->r0.1", 3000, 3001))),
    ("fat_tree-overlapping-flaps", SimulationConfig(
        topology="fat_tree", nodes_per_tor=8, routing="minimal", cc_algorithm="mprdma",
        faults=FaultSchedule(events=(
            FaultEvent(3000, LINK_DOWN, "tor0->core0"), FaultEvent(5000, LINK_DOWN, "tor1->core1"),
            FaultEvent(8000, LINK_UP, "tor0->core0"), FaultEvent(9000, LINK_UP, "tor1->core1"))))),
    ("fat_tree-adaptive-flap", SimulationConfig(
        topology="fat_tree", nodes_per_tor=8, routing="adaptive", cc_algorithm="mprdma",
        faults=flap("tor0->core0", 3000, 9000))),
):
    for _seed in (3, 11):
        register(
            f"sharded/allreduce32K-{_name}-seed{_seed}",
            lambda c=_config, s=_seed: Sim(allreduce(size=1 << 15), c.replace(seed=s)),
            *map(Row, _INVARIANT),
            Row(shards(2, 1), exempt=_CONSERVED),
            slow=True,
        )

# Single-candidate tree: one ToR pair over one core (oversubscription 8 leaves
# exactly one cross-ToR candidate), probabilistic ECN band closed.  Every
# route decision is forced, so serial and sharded engines agree bit for bit
# even across fault transitions and control-plane waves.
ONE_PATH_TREE = SimulationConfig(
    topology="fat_tree", nodes_per_tor=8, oversubscription=8.0, routing="minimal",
    cc_algorithm="mprdma", ecn_kmin_frac=1.0, ecn_kmax_frac=1.0, seed=5,
)
_SERIAL_EXACT = tuple(shards(k, 1) for k in (2, 3, 4))
#: Every shard replays the control plane's wave on its own full-topology
#: replica, so its route lookups count per replica.
_REPLAYED = frozenset({"route_cache_lookups"})

# no control plane: the oracle path re-picks instantly (the flap closes before
# the cross-ToR wave posts at ~8.6 us: the one-path tree has no detour)
register(
    "sharded/one-path-flap",
    lambda: Sim(allreduce(size=1 << 15), ONE_PATH_TREE.replace(faults=flap("tor0->core0", 3000, 3300))),
    *map(Row, _SERIAL_EXACT),
    slow=True,
)
for _protocol in ("dv", "ls"):
    _ttr = {"dv": 1300, "ls": 700}[_protocol]
    for _name, _link, _window, _expect in (
        # the flap closes before the first learn: a pure convergence wave
        ("idle-flap", "tor0->core0", (3000, 3300), lambda out: (
            out["packets_blackholed"], out["packets_lost_to_faults"], out["retransmissions"]) == (0, 0, 0)),
        # adjacent switches learn at +100 and shift in-flight packets to the
        # lost-to-faults path; the source ToR learns only after the link is
        # back, so no re-pick ever sees a partitioned truth
        ("traffic-flap", "core0->tor1", (12000, 12550), lambda out: out["packets_blackholed"] == 0
            and out["packets_lost_to_faults"] > 0 and out["retransmissions"] > 0),
        # a packet reaches the stale core inside the 100 ns pre-learn
        # window: it is forwarded into the black hole
        ("stale-blackhole", "core0->tor1", (11074, 11624), lambda out: out["packets_blackholed"] > 0),
    ):
        register(
            f"sharded/one-path-{_name}-{_protocol}",
            lambda p=_protocol, link=_link, w=_window: Sim(
                allreduce(size=1 << 15), ONE_PATH_TREE.replace(control_plane=p, faults=flap(link, *w))
            ),
            *(
                Row(pair, lambda out, e=_expect, t=_ttr: out["time_to_recover_ns"] == t and e(out), _REPLAYED)
                for pair in _SERIAL_EXACT
            ),
            slow=True,
        )
    # multi-candidate fabrics: traffic is invariant across shard counts >= 2,
    # and the convergence wave, replayed identically on every shard's
    # full-topology replica, matches the serial engine exactly
    for _name, _config, _link in (
        ("fat_tree-ecmp", SimulationConfig(
            topology="fat_tree", nodes_per_tor=8, routing="minimal", cc_algorithm="mprdma", seed=1), "tor0->core0"),
        ("dragonfly-valiant", SimulationConfig(
            topology="dragonfly", routing="valiant", cc_algorithm="swift", seed=1), "r0.0->r0.1"),
    ):
        register(
            f"sharded/allreduce32K-{_name}-{_protocol}-flap",
            lambda c=_config, p=_protocol, link=_link: Sim(
                allreduce(size=1 << 15), c.replace(control_plane=p, faults=flap(link, 3000, 6000))
            ),
            *(Row(pair, exempt=_REPLAYED) for pair in _INVARIANT),
            Row(
                shards(2, 1),
                lambda out: out["time_to_recover_ns"] > 0 and len(out["convergence_records"]) == 2,
                only("convergence_records", "time_to_recover_ns"),
            ),
            slow=True,
        )

# load-adaptive routing: a function of the snapshot cadence (the topology's
# minimum link latency), never of the shard layout
_ADAPTIVE = SimulationConfig(topology="fat_tree", nodes_per_tor=8, routing="adaptive", cc_algorithm="mprdma", seed=3)
register(
    "sharded/allreduce32K-adaptive-auto",
    lambda: Sim(allreduce(size=1 << 15), _ADAPTIVE),
    *map(Row, _INVARIANT),
    Row(shards(4, 1), exempt=only("messages_delivered", "bytes_delivered", "ops_completed")),
    slow=True,
)
# at seed 5 this flap moves the finish time against the unfaulted run
register(
    "sharded/allreduce32K-adaptive-auto-flap",
    lambda: Sim(allreduce(size=1 << 15), _ADAPTIVE.replace(seed=5, faults=flap("tor0->core0", 3000, 9000))),
    *map(Row, _INVARIANT),
    slow=True,
)

# seeded pseudo-random flap schedules: one flap per link keeps a schedule
# self-consistent, and the pool spans distinct ToRs so at most two of a
# ToR's four uplinks are ever down
_FLAP_POOL = (
    "tor0->core0", "tor1->core1", "tor2->core2", "tor3->core3",
    "tor0->core1", "tor1->core2", "tor2->core3", "tor3->core0",
)


def random_faults(seed):
    rng = random.Random(seed)
    events = []
    for link in rng.sample(_FLAP_POOL, rng.randint(1, 4)):
        down = rng.randrange(500, 25_000)
        events += [FaultEvent(down, LINK_DOWN, link), FaultEvent(down + rng.randrange(100, 8_000), LINK_UP, link)]
    return FaultSchedule(events=tuple(events))


for _seed in (0, 1, 2, 7, 424242):
    register(
        f"sharded/random-faults-seed{_seed}",
        lambda s=_seed: Sim(
            allreduce(),
            SimulationConfig(
                topology="fat_tree", nodes_per_tor=4, routing="minimal", cc_algorithm="mprdma",
                seed=s, faults=random_faults(s),
            ),
        ),
        *map(Row, _INVARIANT),
        Row(shards(2, 1), exempt=_CONSERVED),
    )


# ---------------------------------------------------------------------------
# inputs: the flat record store against the record list
# ---------------------------------------------------------------------------
RING_RENDEZVOUS = LogGOPSParams(L=3000, o=600, g=5, G=0.18, S=1000)


def mixed_ring(n=6):
    """Every rank sends its successor one eager (64 B) and one rendezvous
    (4 KiB under a 1000 B threshold) message, on two streams."""
    b = GoalBuilder(n, name="mixed")
    for r in range(n):
        rank = b.rank(r)
        rank.send(64, dst=(r + 1) % n, tag=1)
        rank.send(4096, dst=(r + 1) % n, tag=2, cpu=1)
        rank.recv(64, src=(r - 1) % n, tag=1)
        rank.recv(4096, src=(r - 1) % n, tag=2, cpu=1)
    return b.build()


def tied_shards(seed, shards=2, per_shard=200):
    """Per shard, records drawn from a tiny key space, so many tie on the
    whole merge key; sizes are unique, so any reordering of a tie shows."""
    rng = random.Random(seed)
    size = iter(range(1, shards * per_shard + 1))
    return [
        [
            MessageRecord(rng.randrange(3), rng.randrange(3), next(size), rng.randrange(2), 0, rng.randrange(4))
            for _ in range(per_shard)
        ]
        for _ in range(shards)
    ]


for _protocol, _params in (("eager", LogGOPSParams()), ("rendezvous", RING_RENDEZVOUS)):
    register(
        f"records/mixed-ring-lgs-{_protocol}",
        lambda p=_params: Sim(mixed_ring(), SimulationConfig(loggops=p)),
        Row(RECORDS_LGS, lambda out: len(out["order"]) == 12),
    )
for _cc in ("mprdma", "ndp"):
    # small buffers: drops (or NDP trims) and retransmissions
    register(
        f"records/alltoall16-{_cc}",
        lambda cc=_cc: Sim(
            all_to_all(16, 1 << 15),
            SimulationConfig(
                topology="fat_tree", nodes_per_tor=4, oversubscription=4.0,
                cc_algorithm=cc, buffer_size=1 << 14, seed=3,
            ),
        ),
        Row(RECORDS_HTSIM, lambda out: out["retransmissions"] > 0 and len(out["order"]) == 240),
    )
register(
    "records/allreduce16-shards2",
    lambda: Sim(
        build_collective_schedule("allreduce", "recursive_doubling", 16, 4096),
        SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma", shards=2),
    ),
    Row(RECORDS_HTSIM),
)
for _seed in range(4):
    register(f"records/tied-merge-{_seed}", lambda s=_seed: tied_shards(s), Row(MERGE))


# ---------------------------------------------------------------------------
# inputs: the columnar schedule against the object-list schedule
# ---------------------------------------------------------------------------
class Generated(NamedTuple):
    columnar: object
    oracle: object
    config: SimulationConfig


_SCHEDULE_CONFIG = SimulationConfig(topology="fat_tree", nodes_per_tor=4, loggops=LogGOPSParams.hpc_cluster(), seed=3)


def _paper(build):
    def inputs():
        columnar, oracle = generated(build)
        assert columnar.num_ops() > 500
        validate_schedule(columnar)
        return Generated(columnar, oracle, _SCHEDULE_CONFIG)

    return inputs


def _llama():
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=16)
    report = LlmTrainer(llama_7b().scaled(0.02), par, gpus_per_node=4, iterations=1, seed=1).trace()
    return nccl_trace_to_goal(report, gpus_per_node=4)


def _direct_drive():
    trace = FinancialWorkloadGenerator(seed=7, mean_size_bytes=16384).generate(60)
    return storage_trace_to_goal(trace, DirectDriveConfig(num_clients=4, num_ccs=4, num_bss=8, timescale=0.005))


def _dense_dependencies():
    """One rank of 200 calcs, each on the five before it."""
    schedule = GoalSchedule(1)
    for i in range(200):
        schedule.ranks[0].add_op(Op.calc(i), range(max(0, i - 5), i))
    return Generated(schedule, to_oracle(schedule), None)


register("schedule/dense-dependencies", _dense_dependencies, Row(CODECS))
for _name, _build in (
    ("lulesh", lambda: _hpc("lulesh", ranks=8)),
    ("hpcg", lambda: _hpc("hpcg", ranks=16)),
    ("llama", _llama),
    ("direct_drive", _direct_drive),
):
    register(f"schedule/{_name}", _paper(_build), *map(Row, (SCHEDULE, CODECS, SCHEDULER_LGS, SCHEDULER_HTSIM)))


# ---------------------------------------------------------------------------
# inputs: UGAL and the sweeps
# ---------------------------------------------------------------------------
def _sixteen_minimal_candidates():
    topo = FatTreeTopology(64, nodes_per_tor=16, oversubscription=1.0)
    assert len(topo.routes(0, 63)) == 16
    return topo


# (on the fat tree a detour through a third host never beats the best of 16
# minimal candidates; both sides still score the detours)
register("routing/ugal-FatTreeTopology", _sixteen_minimal_candidates, Row(UGAL))
for _topo in (
    lambda: TorusTopology(16, dims=(4, 4)),
    lambda: DragonflyTopology(32, groups=4, routers_per_group=4, nodes_per_router=2),
    lambda: SlimFlyTopology(20, q=5, hosts_per_router=2),
):
    register(f"routing/ugal-{type(_topo()).__name__}", _topo, Row(UGAL, lambda out: out["diverted"] > 0))


def _topology_sweep(routings, backend):
    return topology_routing_sweep, dict(
        schedule=all_to_all(8, 1 << 13), configs=default_topology_configs(8), routings=routings, backend=backend
    )


register("sweep/topology-routing-htsim", lambda: _topology_sweep(("minimal", "adaptive"), "htsim"), Row(SWEEP2))
register("sweep/topology-routing-lgs", lambda: _topology_sweep(("minimal",), "lgs"), Row(SWEEP3))
# the auto cells resolve to recursive doubling and share those cells' runs
register(
    "sweep/collective",
    lambda: (collective_sweep, dict(
        configs={"fat_tree": SimulationConfig(nodes_per_tor=4), "torus": SimulationConfig(topology="torus")},
        num_ranks=8, sizes=(4096, 65536), algorithms=("hier_rs", "recursive_doubling", "auto"), backend="htsim",
    )),
    Row(SWEEP2, lambda out: {r.resolved for r in out if r.algorithm == "auto"} == {"recursive_doubling"}),
)
register(
    "sweep/inference",
    lambda: (inference_sweep, dict(rates=(200.0, 2000.0), num_requests=8, backend="htsim", seed=3)),
    Row(SWEEP2, lambda out: all(r.requests == 8 for r in out) and out[0].ttft_p999_ns < out[1].ttft_p999_ns),
)
# timed faults under the distance-vector plane: convergence windows and
# slowdowns against each group's healthy cell
register(
    "sweep/resilience",
    lambda: (resilience_sweep, dict(
        schedule=all_to_all(8, 1 << 13), configs={"ft": SimulationConfig(nodes_per_tor=4)},
        failure_rates=(0.25,), routings=("minimal", "adaptive"), control_planes=("oracle", "dv"),
        fail_time_ns=1_000, failure_seed=1,
    )),
    Row(SWEEP2, lambda out: any(r.packets_blackholed for r in out) and any(r.slowdown > 1 for r in out)),
)
register(
    "sweep/interference",
    lambda: (interference_sweep, dict(
        jobs=[
            ClusterJob(all_to_all(4, 1 << 12), name="a"),
            ClusterJob(all_to_all(4, 1 << 12), arrival_ns=500, name="b"),
        ],
        cluster_nodes=8, strategies=("packed", "random"), configs={"ft": SimulationConfig(nodes_per_tor=2)},
        seed=3,
    )),
    Row(SWEEP2, lambda out: all(r.slowdown >= 1 for r in out) and any(r.contended_link_count for r in out)),
)


# ---------------------------------------------------------------------------
# inputs: the benchmark's seven workloads, at --smoke size
# ---------------------------------------------------------------------------
_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def workloads():
    """The benchmark's workload list, ``benchmarks/e2e/workloads.py:WORKLOADS``."""
    if str(_E2E) not in sys.path:
        sys.path.insert(0, str(_E2E))
    from workloads import WORKLOADS

    return WORKLOADS


def bench(name):
    """A fresh instance of benchmark workload ``name``, set up at ``--smoke`` size."""
    workload = type(next(w for w in workloads() if w.name == name))()
    from spans import Tracer

    workload.setup(0, True, Tracer(name, enabled=False))
    return workload


def _bench_sim(name):
    workload = bench(name)
    return Sim(workload.goal, workload.cfg)


def _bench_sweep():
    w = bench("placement_sweep_htsim")
    return interference_sweep, dict(
        jobs=w.jobs, cluster_nodes=w.CLUSTER_NODES, strategies=w.STRATEGIES,
        configs={"fat_tree_4to1": w.cfg}, seed=w.seed,
    )


for _name in ("ai_train_htsim", "storage_ndp_htsim", "scale_allreduce2k_htsim"):
    register(f"bench/{_name}", lambda n=_name: _bench_sim(n), Row(PACKET))
register("bench/hpc_hpcg_lgs", lambda: _bench_sim("hpc_hpcg_lgs"), Row(LOGGOPS))
register("bench/scale_allreduce2k_htsim_sh2", lambda: _bench_sim("scale_allreduce2k_htsim_sh2"), Row(shards(2, 4)))
register(
    "bench/goal_ingest_hpc",
    lambda: Generated(*generated(lambda: mpi_trace_to_goal(bench("goal_ingest_hpc").trace)), None),
    Row(CODECS),
)
register("bench/placement_sweep_htsim", _bench_sweep, Row(SWEEP2))

#: Every pair in the registry.
PAIRS = frozenset(row.pair for rows in ROWS.values() for row in rows)
