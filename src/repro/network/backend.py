"""The unified network-backend API (the paper's ``ATLAHS_API``).

The GOAL scheduler drives any network simulator through five operations
(paper Fig. 7): ``simulationSetup``, ``send``, ``recv``, ``calc`` and the
completion callback ``eventOver``.  In this reproduction:

* :meth:`NetworkBackend.setup` is ``simulationSetup``,
* :meth:`NetworkBackend.issue_send` / :meth:`issue_recv` /
  :meth:`issue_calc` post work for a rank once its dependencies are met,
* the scheduler's completion handler, handed over as
  :attr:`NetworkBackend.on_complete` right after ``setup``, is
  ``eventOver``: the backend's events call it as ``on_complete(time, (rank,
  op_id))`` for each finished operation, and the scheduler may issue new
  operations from inside it (at the current time or later).

Two backends implement this API: the message-level LogGOPS backend
(:class:`repro.network.loggops.LogGOPSBackend`) and the packet-level backend
(:class:`repro.network.packet.PacketBackend`).
"""
from __future__ import annotations

import abc
import hashlib
import heapq
from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.goal.schedule import exact_sum
from repro.network.config import SimulationConfig
from repro.network.control_plane import create_control_plane
from repro.network.events import EventQueue
from repro.network.faults import LINK_DOWN, SWITCH_DRAIN
from repro.network.host import HostCompute
from repro.network.matching import MessageMatcher
from repro.network.routing import create_routing
from repro.network.topology import build_topology


class MessageRecord(NamedTuple):
    """Per-message timing record used for MCT (message completion time) studies."""

    src: int
    dst: int
    size: int
    tag: int
    post_time: int
    completion_time: int

    @property
    def completion_latency(self) -> int:
        """Message completion time: delivery time minus the time the send was posted."""
        return self.completion_time - self.post_time


_RECORD_WIDTH = len(MessageRecord._fields)


class MessageRecords(Sequence):
    """Every delivered message's :class:`MessageRecord`, stored flat.

    One ``array('Q')`` holds six values per message in ``MessageRecord``
    field order: 48 bytes a message, where a list of namedtuples and the
    ints only they keep alive cost 170-210.  A backend appends a message with
    one ``extend`` of its six fields.  Read, the store is a sequence of
    ``MessageRecord``: indexing (negative too), slices (a list), iteration,
    ``sorted``, ``tuple`` and ``repr`` read as the list did, and ``==``
    compares with another store or, record by record, with a list or tuple.
    :meth:`columns` is the ``(n, 6)`` numpy view for whole-column work.  It
    pickles as the array's raw bytes.
    """

    __slots__ = ("_flat",)

    def __init__(self, flat: Optional[array] = None) -> None:
        self._flat = array("Q") if flat is None else flat

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "MessageRecords":
        """A store holding the rows of an ``(n, 6)`` integer array."""
        return cls(array("Q", np.ascontiguousarray(columns, dtype=np.uint64).tobytes()))

    def columns(self) -> np.ndarray:
        """The records as a read-only ``(n, 6)`` uint64 view, one row per message.

        The store cannot grow while a view is alive (an exporting ``array``
        refuses to resize); a finished run's store never grows again.
        """
        view = np.frombuffer(self._flat, dtype=np.uint64).reshape(-1, _RECORD_WIDTH)
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._flat) // _RECORD_WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("message record index out of range")
        start = i * _RECORD_WIDTH
        return MessageRecord._make(self._flat[start : start + _RECORD_WIDTH])

    def __iter__(self) -> Iterator[MessageRecord]:
        fields_ = iter(self._flat)
        return map(MessageRecord._make, zip(*[fields_] * _RECORD_WIDTH))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MessageRecords):
            return self._flat == other._flat
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return MessageRecords, (self._flat,)


@dataclass
class NetworkStats:
    """Aggregate statistics collected during a simulation run.

    Message-level backends fill only the message counters; the packet-level
    backend additionally reports packet, drop, trim, ECN and retransmission
    counters — the "fine-grained details only packet-level simulators can
    provide" highlighted in the paper's §6.2.  Drops, trims, ECN marks and
    ``max_queue_bytes`` are the totals and the peak of the per-link
    :class:`LinkStats` record.
    """

    messages_delivered: int = 0
    bytes_delivered: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    packets_trimmed: int = 0
    packets_ecn_marked: int = 0
    retransmissions: int = 0
    max_queue_bytes: int = 0
    #: In-flight packets forced onto a surviving candidate route after a
    #: fault event (packet backend, fault injection only).
    packets_rerouted: int = 0
    #: In-flight packets stranded by a fault with no surviving candidate
    #: sharing their traversed prefix; recovered by loss timeout.
    packets_lost_to_faults: int = 0
    #: Packets a stale switch forwarded into a failed region during control-
    #: plane convergence (``control_plane="dv"|"ls"`` only); recovered by
    #: loss timeout once the source's first-hop switch reconverges.
    packets_blackholed: int = 0
    #: Worst per-event convergence window (last stale switch catch-up time
    #: minus fault event time); 0 under the oracle control plane.
    time_to_recover_ns: int = 0
    #: Route-table LRU cache counters (see docs/scaling.md): lookups served
    #: from / missing the bounded per-pair route caches, and entries evicted
    #: to stay within ``SimulationConfig.route_cache_entries``.  They count
    #: host work, not simulated facts (:data:`ROUTE_CACHE_COUNTERS`).
    route_cache_hits: int = 0
    route_cache_misses: int = 0
    route_cache_evictions: int = 0

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        """Field-wise fold of two stats objects: counters sum, peaks take the max."""
        return _fold_counters(self, other, max_fields=_STATS_MAX_FIELDS)


#: The :class:`NetworkStats` counters of host work (route-table lookups):
#: two runs that simulate the same thing may differ on them, so
#: :meth:`SimulationResult.digest` leaves them out.
ROUTE_CACHE_COUNTERS = ("route_cache_hits", "route_cache_misses", "route_cache_evictions")

#: :class:`NetworkStats` fields that are peaks rather than counters: merging
#: two shards' stats takes their max.  Every other field sums, so a newly
#: added counter is carried through sharded runs without touching ``merge``.
_STATS_MAX_FIELDS = frozenset({"max_queue_bytes", "time_to_recover_ns"})


def _fold_counters(a, b, max_fields=frozenset(), key_fields=frozenset()):
    """Fold two instances of one stats dataclass, field by field.

    Integer counters sum, ``max_fields`` take the max and ``key_fields``
    identify the record (``a``'s value is kept).
    """
    out = {}
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in key_fields:
            out[f.name] = x
        elif f.name in max_fields:
            out[f.name] = max(x, y)
        else:
            out[f.name] = x + y
    return type(a)(**out)


#: The per-link counter columns of :class:`LinkStats`, in field order.
LINK_COLUMNS = ("busy_ns", "max_queued_bytes", "drops", "trims", "ecn_marks", "routed_bytes")


@dataclass(eq=False)
class LinkStats:
    """Per-link facts of a run: one ``int64`` column per counter, indexed by link id.

    The packet backend fills ``busy_ns`` (serialisation time), the peak
    ``max_queued_bytes`` and the ``drops``, ``trims`` and ``ecn_marks`` of
    each link's queue; the LogGOPS backend fills ``routed_bytes`` in
    topology-aware mode.  A column a backend does not model is zeros.
    ``group_bytes`` maps an op group to its bytes per link, only when the
    scheduler was given ``op_groups``: the packet backend charges every
    injected DATA packet (retransmissions included) to each link of its
    route, LogGOPS every routed message.  A run with no modelled links
    (LogGOPS in flat-``L`` mode) has an empty record.  Records compare equal
    when names, columns and group bytes are.
    """

    names: Tuple[str, ...]
    busy_ns: np.ndarray
    max_queued_bytes: np.ndarray
    drops: np.ndarray
    trims: np.ndarray
    ecn_marks: np.ndarray
    routed_bytes: np.ndarray
    group_bytes: Dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def of(cls, names: Sequence[str] = ()) -> "LinkStats":
        """A record of all-zero columns for links called ``names``."""
        n = len(names)
        return cls(tuple(names), *(np.zeros(n, dtype=np.int64) for _ in LINK_COLUMNS))

    def merge(self, other: "LinkStats") -> "LinkStats":
        """Elementwise sum of two shards' records of one topology.

        A link's counters live only on the shard that owns it (its source
        device's) and a packet's group bytes on its sender's, so the sum is
        exact, peaks included.
        """
        groups = dict(self.group_bytes)
        for group, arr in other.group_bytes.items():
            groups[group] = groups[group] + arr if group in groups else arr
        return LinkStats(
            self.names, *(getattr(self, c) + getattr(other, c) for c in LINK_COLUMNS), groups
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkStats):
            return NotImplemented
        return (
            self.names == other.names
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in LINK_COLUMNS)
            and self.group_bytes.keys() == other.group_bytes.keys()
            and all(np.array_equal(a, other.group_bytes[g]) for g, a in self.group_bytes.items())
        )


@dataclass
class GroupStats:
    """What one op group did in a run: when it finished and what it sent.

    Groups come from the ``op_groups`` argument of
    :func:`~repro.scheduler.simulate` (one id per op, ``-1`` = none; the
    co-tenancy engine gives every op its job's index).  A message belongs
    to the group of its send op.  Attribution is purely observational — it
    never alters simulated timing.

    Attributes
    ----------
    group:
        Group id this record belongs to.
    finish_ns:
        Completion time of the group's last op.
    messages_delivered / bytes_delivered:
        Messages sent by the group's ops that were fully delivered, and
        their payload bytes.

    The group's bytes per link are ``SimulationResult.links.group_bytes``.
    """

    group: int
    finish_ns: int = 0
    messages_delivered: int = 0
    bytes_delivered: int = 0

    def merge(self, other: "GroupStats") -> "GroupStats":
        """Fold two partial records of the same group (one per shard)."""
        return _fold_counters(
            self, other, max_fields=frozenset({"finish_ns"}), key_fields=frozenset({"group"})
        )


@dataclass
class SimulationResult:
    """Result of replaying a GOAL schedule on a backend.

    Attributes
    ----------
    finish_time_ns:
        Simulated makespan — the time at which the last operation of the last
        rank completed.
    rank_finish_times_ns:
        Per-rank completion time.
    stats:
        Aggregate :class:`NetworkStats`.
    message_records:
        Per-message records as a :class:`MessageRecords` store (empty
        unless :attr:`SimulationConfig.collect_message_records` is enabled).
    ops_completed:
        Total GOAL operations executed.
    backend:
        Name of the backend that produced the result.
    wall_clock_s:
        Host wall-clock seconds spent simulating (for the simulator
        runtime-comparison experiments).
    groups:
        Per-group :class:`GroupStats` keyed by group id (empty unless the
        scheduler was given ``op_groups``).
    links:
        The per-link :class:`LinkStats` record, indexed by link id.
    convergence_records:
        Per-fault-event :class:`~repro.network.control_plane.ConvergenceRecord`
        list; empty under ``control_plane="oracle"`` or when the backend
        tracks no convergence.  Sharded runs carry the records through the
        merge (the wave is replayed identically on every shard, so one
        shard's copy is canonical).
    """

    finish_time_ns: int
    rank_finish_times_ns: List[int]
    stats: NetworkStats
    message_records: MessageRecords = field(default_factory=MessageRecords)
    ops_completed: int = 0
    backend: str = ""
    wall_clock_s: float = 0.0
    groups: Dict[int, GroupStats] = field(default_factory=dict)
    links: LinkStats = field(default_factory=LinkStats.of)
    convergence_records: List = field(default_factory=list)

    @property
    def finish_time_s(self) -> float:
        """Simulated makespan in seconds."""
        return self.finish_time_ns / 1e9

    def mct_statistics(self) -> Dict[str, float]:
        """Return mean / p99 / max message completion times in ns.

        Raises ``ValueError`` when message records were not collected.
        """
        if not self.message_records:
            raise ValueError("no message records were collected")
        columns = self.message_records.columns()
        latencies = np.sort(columns[:, 5] - columns[:, 4])
        n = len(latencies)
        p99_index = min(n - 1, int(round(0.99 * (n - 1))))
        return {
            "mean": exact_sum(latencies) / n,
            "p99": float(latencies[p99_index]),
            "max": float(latencies[-1]),
            "count": float(n),
        }

    def digest(self) -> dict:
        """Every simulated fact of the run, as one canonical dict.

        Keys are this record's own names: ``finish_time_ns``,
        ``ops_completed``, every :class:`NetworkStats` field but the
        :data:`ROUTE_CACHE_COUNTERS`, and ``groups`` and
        ``convergence_records`` inline (as lists of dicts, in group id and
        event order).  ``rank_finish_times_ns``, ``links`` (names, columns
        and group bytes) and ``message_records`` are each one blake2b hex
        over little-endian 64-bit integers; the records are lexsorted on all
        six fields first, a multiset, so serial and sharded runs agree.
        ``backend`` and ``wall_clock_s`` are host facts and left out.  The
        dict is plain JSON: ``json.loads(json.dumps(d)) == d``.  Computed
        afresh on every call; see ``docs/architecture.md``.
        """
        stats, links = self.stats, self.links
        records = self.message_records.columns()
        return {
            "finish_time_ns": self.finish_time_ns,
            "ops_completed": self.ops_completed,
            **{f.name: getattr(stats, f.name) for f in fields(stats) if f.name not in ROUTE_CACHE_COUNTERS},
            "groups": [asdict(g) for _, g in sorted(self.groups.items())],
            "convergence_records": [
                {**asdict(r), "link_ids": list(r.link_ids)} for r in self.convergence_records
            ],
            "rank_finish_times_ns": _blake2(self.rank_finish_times_ns),
            "links": _blake2(
                "".join(f"{name}\n" for name in links.names).encode(),
                *(getattr(links, c) for c in LINK_COLUMNS),
                *(part for g in sorted(links.group_bytes) for part in ([g], links.group_bytes[g])),
            ),
            "message_records": _blake2(records[np.lexsort(records.T[::-1])]),
        }


def _blake2(*parts) -> str:
    """One blake2b hex over ``parts``: bytes as they are, integers as ``<i8``."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.asarray(part, dtype="<i8").tobytes())
    return h.hexdigest()


#: ``eventOver``: called as ``on_complete(time, (rank, op_id))``, the
#: signature of an event handler, so an event can call it directly.
CompletionCallback = Callable[[int, Tuple[int, int]], None]


def _no_handler(time: int, payload: Tuple[int, int]) -> None:
    """What an op issued before the handover completes through."""
    raise RuntimeError(
        f"op {payload[1]} of rank {payload[0]} finished with no completion handler: "
        "hand it over as backend.on_complete right after setup()"
    )


class NetworkBackend(abc.ABC):
    """Base class of all network simulation backends.

    A backend is only its timing model.  Everything around the five-call
    API is shared and lives here: the :meth:`setup` preamble (event queue,
    host compute, message matching, stats, records, group attribution), the
    fabric bring-up (:meth:`_bring_up_fabric`), timed fault application
    (:meth:`_apply_fault`), issuing (``calc`` ops, and the posts of sends and
    receives), delivered-message accounting and the stats fold.  A subclass
    implements the two post handlers :meth:`_start_send` and
    :meth:`_post_recv`, and :meth:`run`, and extends :meth:`setup` /
    :meth:`_apply_fault` / :meth:`collect_links` / :meth:`collect_stats`
    with whatever its model adds (see ``docs/architecture.md``).  Its events
    report a finished op by calling :attr:`on_complete` directly.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._configured = False

    # ------------------------------------------------------------------ setup
    def setup(self, num_ranks: int, config: SimulationConfig) -> None:
        """Configure the backend (``simulationSetup``): shared state only.

        Subclasses extend this: call ``super().setup(...)``, bring up the
        fabric if the model needs one, then build their own state.
        """
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.config = config
        self.events = EventQueue()
        self.host = HostCompute()
        self.matcher = MessageMatcher()
        self.rng = np.random.default_rng(config.seed)
        self.stats = NetworkStats()
        self.records = MessageRecords()
        # one extend of six fields per delivered message; None when off
        self._record = self.records._flat.extend if config.collect_message_records else None
        self.topology = None
        self.routing = None
        self._faults_enabled = bool(config.faults)
        self._cp = None
        self.convergence_events: List = []
        # group attribution (observational only; see GroupStats): the group
        # of every global op id, handed over by the scheduler after setup
        # (None when attribution is off, so per-message and per-packet hot
        # paths pay a single predicate); group id -> [messages_delivered,
        # bytes_delivered], and group id -> per-link bytes (a plain list:
        # one add per hop is far cheaper than a numpy scalar add)
        self.op_group: Optional[Sequence[int]] = None
        self._group_msgs: Dict[int, List[int]] = {}
        self._group_link_bytes: Dict[int, List[int]] = {}
        #: The scheduler's completion handler (``eventOver``), handed over
        #: right after setup like ``op_group``: every op issued from then on
        #: completes through it (one issued before fails when it finishes).
        self.on_complete: CompletionCallback = _no_handler
        self._configured = True

    def _require_setup(self) -> None:
        if not self._configured:
            raise RuntimeError("backend used before setup() was called")

    def _bring_up_fabric(self) -> None:
        """Build ``self.topology`` / ``self.routing`` and apply the fault schedule.

        One order, relied on by every backend: topology (route-cache budget
        and synthesis applied by :func:`build_topology`) → routing strategy
        → :meth:`_fabric_built` → static degradations (before any backend
        captures link bandwidths) → static failures (before any route is
        picked) → timed fault events (scheduled ahead of every GOAL
        operation, so same-time ties apply the fault first) → control
        plane.  With an empty schedule everything past the routing strategy
        is gated off.

        A control plane exists exactly when ``control_plane`` is not
        ``"oracle"`` *and* the fault schedule is non-empty — without faults no
        advertisement wave can ever originate, so the run is the oracle run.
        It is created after the static failures so switch views boot
        converged.
        """
        config = self.config
        topology = self.topology = build_topology(config, self.num_ranks)
        self.routing = create_routing(config.routing, topology, self.rng)
        if not self._faults_enabled:
            return
        self._fabric_built()
        faults = config.faults
        for link_id, factor in faults.static_degradations(topology).items():
            topology.degrade_link(link_id, factor)
        static = faults.static_failed_ids(topology)
        if static:
            topology.fail_links(static)
        for time_ns, kind, ids in faults.resolved_events(topology):
            self.events.schedule(time_ns, self._apply_fault, (kind, ids))
        self._cp = create_control_plane(
            config.control_plane,
            topology,
            propagation_delay_ns=config.cp_propagation_ns,
            processing_delay_ns=config.cp_processing_ns,
        )

    def _fabric_built(self) -> None:
        """Hook: the fabric exists and is still healthy (faulted runs only)."""

    def _apply_fault(
        self, time: int, payload: Tuple[str, Sequence[int]]
    ) -> Optional[List[Tuple[int, Tuple[int, ...]]]]:
        """Apply one timed fault event to the fabric; backends extend this.

        Flips the link state (failing links bumps the topology's fault
        epoch, dropping its fault-filtered tables).  Under a convergent
        control plane the advertisement wave is then originated over the
        post-event surviving switch graph, its
        :class:`~repro.network.control_plane.ConvergenceRecord` is logged,
        and the wave is returned as ``[(learn_time, switches), ...]`` in
        time order for the backend to schedule; under the oracle the
        return value is ``None`` (every switch already knows).
        """
        kind, ids = payload
        if kind in (LINK_DOWN, SWITCH_DRAIN):
            self.topology.fail_links(ids)
        else:
            self.topology.restore_links(ids)
        cp = self._cp
        if cp is None:
            return None
        record, learn = cp.originate(time, kind, ids)
        self.convergence_events.append(record)
        groups: Dict[int, List[int]] = {}
        for switch, t in learn.items():
            groups.setdefault(t, []).append(switch)
        return [(t, tuple(groups[t])) for t in sorted(groups)]

    # ----------------------------------------------------------------- issuing
    # The scheduler issues an op at its last predecessor's completion time,
    # the current time, so a post due now goes onto the event queue's
    # same-instant ready queue (see repro.network.events) and anything later
    # onto the heap; either way it takes the next sequence number, so it runs
    # where the heap alone would have run it.

    def issue_calc(self, rank: int, stream: int, duration_ns: int, op_id: int, ready_time: int) -> None:
        """Post a computation of ``duration_ns`` on ``(rank, stream)``, ready at ``ready_time``."""
        # inlined HostCompute.reserve — one call frame and one tuple less on
        # the single hottest path of calc-dominated workloads
        if duration_ns < 0:
            raise ValueError("duration must be non-negative")
        free = self.host._free_at
        key = (rank, stream)
        start = free.get(key, 0)
        if start < ready_time:
            start = ready_time
        end = start + duration_ns
        free[key] = end
        # end >= ready_time >= now by construction: no past-check needed; a
        # zero-cost calc on a free stream (a join) completes now
        events = self.events
        entry = (end, 0, events._seq, self.on_complete, (rank, op_id))
        if end == events._now:
            events._ready.append(entry)
        else:
            heapq.heappush(events._heap, entry)
        events._seq += 1

    def issue_send(
        self, rank: int, dst: int, size: int, tag: int, stream: int, op_id: int, ready_time: int
    ) -> None:
        """Post a send of ``size`` bytes from ``rank`` to ``dst`` with ``tag``:
        :meth:`_start_send` runs at ``ready_time``."""
        events = self.events
        entry = (ready_time, 0, events._seq, self._start_send, (rank, dst, size, tag, stream, op_id))
        if ready_time == events._now:
            events._ready.append(entry)
        else:
            heapq.heappush(events._heap, entry)
        events._seq += 1

    def issue_recv(
        self, rank: int, src: int, size: int, tag: int, stream: int, op_id: int, ready_time: int
    ) -> None:
        """Post a receive of ``size`` bytes at ``rank`` from ``src`` with
        ``tag``: :meth:`_post_recv` runs at ``ready_time``."""
        events = self.events
        entry = (ready_time, 0, events._seq, self._post_recv, (rank, src, size, tag, stream, op_id))
        if ready_time == events._now:
            events._ready.append(entry)
        else:
            heapq.heappush(events._heap, entry)
        events._seq += 1

    @abc.abstractmethod
    def _start_send(self, time: int, payload: Tuple[int, int, int, int, int, int]) -> Any:
        """Event handler: the send ``(rank, dst, size, tag, stream, op_id)`` starts at ``time``."""

    @abc.abstractmethod
    def _post_recv(self, time: int, payload: Tuple[int, int, int, int, int, int]) -> None:
        """Event handler: the receive ``(rank, src, size, tag, stream, op_id)`` is posted at ``time``."""

    @abc.abstractmethod
    def run(self, on_complete: CompletionCallback) -> int:
        """Run the event loop to completion; return the final simulation time in ns.

        ``on_complete`` is the handler handed over as :attr:`on_complete`
        after setup; ops issued before the loop already complete through it.
        """

    # ------------------------------------------------------ delivered messages
    def _message_delivered(
        self, src: int, dst: int, size: int, tag: int, post_time: int, time: int, op_id: int
    ) -> None:
        """Account one fully delivered message (sent by op ``op_id``): stats,
        group attribution, record."""
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        if self.op_group is not None:
            self._count_group_message(op_id, size)
        if self._record is not None:
            self._record((src, dst, size, tag, post_time, time))

    def _count_group_message(self, op_id: int, size: int) -> None:
        """Attribute one delivered message of ``size`` bytes to its send op's group."""
        group = self.op_group[op_id]
        if group >= 0:
            per_group = self._group_msgs.setdefault(group, [0, 0])
            per_group[0] += 1
            per_group[1] += size

    def _charge_group_links(self, op_id: int, route: Sequence[int], size: int) -> None:
        """Attribute ``size`` bytes on every link of ``route`` to op ``op_id``'s group."""
        group = self.op_group[op_id]
        if group < 0:
            return
        per_link = self._group_link_bytes.get(group)
        if per_link is None:
            per_link = self._group_link_bytes[group] = [0] * len(self.topology.links)
        for link in route:
            per_link[link] += size

    # ----------------------------------------------------------------- results
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        self._require_setup()
        return self.events.now

    def collect_links(self) -> LinkStats:
        """The run's per-link :class:`LinkStats` record.

        Names come from the topology (an empty record without one) and
        group bytes from the attribution counters; a backend fills the
        columns its model keeps.
        """
        self._require_setup()
        topology = self.topology
        links = LinkStats.of([] if topology is None else [link.name for link in topology.links])
        links.group_bytes = {
            group: np.array(per_link, dtype=np.int64)
            for group, per_link in self._group_link_bytes.items()
        }
        return links

    def collect_stats(self, links: LinkStats) -> NetworkStats:
        """Return aggregate statistics for the run so far (idempotent).

        Drops, trims and ECN marks are the sums of ``links``' columns and
        ``max_queue_bytes`` its peak; then the worst convergence window and
        the fabric's route-cache counters.  Backends with more counters fold
        theirs, then defer here.
        """
        self._require_setup()
        stats = self.stats
        stats.packets_dropped = int(links.drops.sum())
        stats.packets_trimmed = int(links.trims.sum())
        stats.packets_ecn_marked = int(links.ecn_marks.sum())
        stats.max_queue_bytes = int(links.max_queued_bytes.max(initial=0))
        if self.convergence_events:
            stats.time_to_recover_ns = max(
                r.time_to_recover_ns for r in self.convergence_events
            )
        if self.topology is not None:
            cache = self.topology.route_cache_stats()
            stats.route_cache_hits = cache["hits"]
            stats.route_cache_misses = cache["misses"]
            stats.route_cache_evictions = cache["evictions"]
        return stats

    def collect_message_records(self) -> MessageRecords:
        """The :class:`MessageRecords` store (empty unless ``collect_message_records`` is set)."""
        self._require_setup()
        return self.records

    def group_stats(self, finish: Dict[int, int]) -> Dict[int, GroupStats]:
        """Per-group records keyed by group id, in id order.

        ``finish`` holds the scheduler's per-group completion times; the
        message counters are this backend's.  Empty without op groups.
        """
        self._require_setup()
        msgs = self._group_msgs
        return {
            group: GroupStats(group, finish.get(group, 0), *msgs.get(group, (0, 0)))
            for group in sorted(set(finish) | set(msgs))
        }

    def unmatched_state(self) -> Dict[str, int]:
        """Diagnostics for unmatched communication (should be all zero)."""
        return {
            "pending_recvs": self.matcher.pending_recv_count(),
            "unexpected_messages": self.matcher.pending_arrival_count(),
        }


def create_backend(name: str) -> NetworkBackend:
    """Instantiate a backend by the name its results report: ``"lgs"`` or ``"htsim"``.

    The import is local so that importing :mod:`repro.network` does not pull
    in both backends eagerly.
    """
    if name == "lgs":
        from repro.network.loggops import LogGOPSBackend

        return LogGOPSBackend()
    if name == "htsim":
        from repro.network.packet import PacketBackend

        return PacketBackend()
    raise ValueError(f"unknown backend {name!r}; expected 'lgs' or 'htsim'")
