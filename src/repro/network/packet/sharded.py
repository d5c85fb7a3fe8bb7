"""Conservative-window parallel packet engine (``SimulationConfig.shards``).

Partitioned discrete-event simulation of the packet backend: the topology's
devices are split into ``shards`` contiguous host blocks (switches follow
their first attached host), each shard runs an independent
:class:`~repro.network.packet.backend.PacketBackend` over the *full*
topology but only its own ranks' GOAL DAGs, and the driver advances all
shards in lockstep lookahead windows:

1. every shard reports the timestamp of its next pending event,
2. the driver computes ``T = min(next events, pending boundary messages)``
   and the window edge ``U = T + L`` where the lookahead ``L`` is the
   minimum propagation latency over *cut links* (links whose endpoints live
   on different shards),
3. every shard executes its events up to and including ``U``,
4. packets that crossed a cut link are exchanged at the barrier and applied
   before the next window.

This is the classic conservative (Chandy–Misra style) window protocol: a
packet leaving shard A at time ``t >= T`` arrives on shard B no earlier
than ``t + 1 + L > U`` (serialisation takes at least 1 ns), so nothing
exchanged at the barrier can ever land in a shard's executed past.

Determinism contract
--------------------
``shards=1`` (the default) never enters this module — the single-process
engine runs byte-identically to previous releases.  ``shards>1`` replaces
the backend's single event-order-consumed RNG stream with *keyed* streams
whose draws depend only on simulated identities, never on engine
interleaving:

* route choice (ECMP/Valiant ties) draws from a per-flow generator seeded
  by ``(seed, 0x5A, src, dst, pair_occurrence)``,
* ECN marking draws from a per-link generator seeded by
  ``(seed, 0xEC, link_id)``,
* post-fault route re-picks draw from a per-flow generator seeded by
  ``(seed, 0x9E, src, dst, pair_occurrence, nth_repick)``,
* in-flight reroute tie-breaks draw from a per-packet generator seeded by
  ``(seed, 0xF7, src, dst, pair_occurrence, seq, hop, now)``.

Results are therefore bit-identical across *any* shard count >= 2, and
coincide with ``shards=1`` exactly on configurations that consume no
randomness (single-candidate routes, traffic outside the probabilistic ECN
band) — which is what ``tests/differential.py``'s ``sharded/*`` rows lock
in.  Merged ``message_records`` are stably sorted by
``(completion_time, src, dst, tag)``: records equal on that key keep shard
order, then delivery order.

Faults, adaptive routing, and convergent control planes
-------------------------------------------------------
**Timed faults** replay as in the serial engine: each shard schedules the
fault events on its own event queue at setup, ahead of every GOAL
operation, so they hold the lowest sequence numbers and run before any
same-time event (the serial fault-first tie-break) on the shard's
full-topology replica, inside an ordinary window.  The window needs no
other bound than its lookahead.  Boundary packets carry their route tuple,
so a packet crossing a shard never takes a route the sender's flow has
since re-picked.  Alive-table eviction, reroutes, and
``packets_lost_to_faults`` accounting replay bit-identically.

**Convergent control planes** (``ls``/``dv``) replicate: every shard holds
the full switch graph, so the advertisement wave a fault event originates
computes identical per-switch learn instants and
:class:`~repro.network.control_plane.ConvergenceRecord` lists on every
shard; learn events replay inside each shard's windows at the same
``(time, insertion)`` positions as serial, making ``time_to_recover_ns``
and ``packets_blackholed`` exact.  A fabric event (fault or learn) that
every shard replays counts once, on shard 0, in the events executed.

**Load-adaptive routing** reads global link-load *snapshots* exchanged at
barriers on a fixed cadence, the topology's minimum link latency
(layout-independent).  The snapshot at ``S`` governs every route draw in
``(S, S + cadence]``, so the semantics are shard-count-invariant — but
they deliberately *approximate* serial's live queue depths;
``tests/differential.py`` locks invariance across shard counts instead of
serial parity.

Serial equality under faults additionally assumes the run has no
congestion drops concurrent with a fault transition: the sharded engine
decides "does this flow still need its route re-picked" by sender-side
retirement (all packets ACKed) while serial uses receiver-side delivery,
and the two differ only for a delivered-but-unACKed flow holding a
pending spurious retransmission.  Shard-count invariance is unconditional.

``min_retransmit_timeout`` must exceed the lookahead so cross-shard loss
notifications always fire in a later window (a ``ValueError`` names both
computed values).
"""
from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import workers
from repro.goal.schedule import GoalSchedule
from repro.network.backend import GroupStats, LinkStats, MessageRecords, NetworkStats, SimulationResult
from repro.network.config import SimulationConfig
from repro.network.congestion import create_congestion_control
from repro.network.packet.backend import PacketBackend
from repro.network.packet.flow import Flow
from repro.network.packet.linkqueue import _NEVER, BurstLinkQueue
from repro.network.packet.packet import Packet
from repro.network.topology import build_topology
from repro.network.topology.base import Topology
from repro.scheduler.scheduler import GoalScheduler

# SeedSequence stream tags separating the keyed RNG families
_FLOW_STREAM = 0x5A
_ECN_STREAM = 0xEC
_REPICK_STREAM = 0x9E
_REROUTE_STREAM = 0xF7

# lookahead sentinel when no link crosses a shard boundary: one window
# covers the whole simulation
_NO_CUT = 1 << 60

# boundary message kinds
_MSG_PACKET = 0
_MSG_LOSS = 1

# flow key: (src, dst, pair_occurrence) — globally unique and invariant
# under the shard count (occurrence numbers follow the canonical event
# order of the src rank's shard, which every shard count reproduces)
_FlowKey = Tuple[int, int, int]


class _KeyedRng:
    """A keyed generator built on its first use.

    Seeding a ``default_rng`` costs ~14 µs, most route picks never draw
    (single-candidate pairs) and most links never enter the ECN band, so
    the route-pick and per-link ECN streams stand in for their generators
    as this and materialise only when asked.
    """

    __slots__ = ("_key", "_gen")

    def __init__(self, *key: int) -> None:
        self._key = key
        self._gen = None

    def __getattr__(self, name: str) -> Any:
        # reached for the Generator API only: the two slots resolve first
        gen = self._gen
        if gen is None:
            gen = self._gen = np.random.default_rng(self._key)
        return getattr(gen, name)


# ---------------------------------------------------------------------- plan
@dataclass(frozen=True)
class ShardPlan:
    """Static device partition shared by the driver and every shard."""

    num_shards: int
    #: device id -> owning shard
    device_owner: Tuple[int, ...]
    #: rank -> owning shard (prefix of ``device_owner``: ranks are hosts)
    rank_owner: Tuple[int, ...]
    #: ranks each shard schedules
    shard_ranks: Tuple[Tuple[int, ...], ...]
    #: min propagation latency over cut links (ns); ``_NO_CUT`` when none
    lookahead: int
    num_cut_links: int


def plan_shards(topology: Topology, num_ranks: int, shards: int) -> ShardPlan:
    """Partition ``topology`` into ``shards`` contiguous host blocks.

    Hosts split evenly in id order (``h * shards // num_hosts``); a switch
    joins the shard of its first attached host so every host uplink stays
    shard-local whenever the block boundary does not cut through a ToR;
    switches with no attached host (e.g. fat-tree cores) round-robin across
    shards to spread relay work.
    """
    hosts = topology.num_hosts
    if not 1 <= shards <= hosts:
        raise ValueError(f"shards must be in [1, num_hosts={hosts}], got {shards}")
    owner = [0] * topology.num_devices
    for h in range(hosts):
        owner[h] = h * shards // hosts
    attach_owner: Dict[int, int] = {}
    for h in range(hosts):
        attach_owner.setdefault(topology.attachment(h), owner[h])
    hostless = 0
    for dev in range(hosts, topology.num_devices):
        assigned = attach_owner.get(dev)
        if assigned is None:
            assigned = hostless % shards
            hostless += 1
        owner[dev] = assigned
    cut = [l.latency for l in topology.links if owner[l.src] != owner[l.dst]]
    shard_ranks: List[List[int]] = [[] for _ in range(shards)]
    for r in range(num_ranks):
        shard_ranks[owner[r]].append(r)
    return ShardPlan(
        num_shards=shards,
        device_owner=tuple(owner),
        rank_owner=tuple(owner[:num_ranks]),
        shard_ranks=tuple(tuple(rs) for rs in shard_ranks),
        lookahead=min(cut) if cut else _NO_CUT,
        num_cut_links=len(cut),
    )


def _validate_sharded(config: SimulationConfig, plan: ShardPlan) -> None:
    """Reject configurations whose sharded timing contract cannot hold."""
    if plan.num_cut_links and config.min_retransmit_timeout <= plan.lookahead:
        raise ValueError(
            f"min_retransmit_timeout ({config.min_retransmit_timeout} ns) "
            f"must exceed the shard lookahead ({plan.lookahead} ns) so "
            "cross-shard loss notifications always fire in a later window"
        )


# ------------------------------------------------------------ boundary queues
class _BoundaryBurstQueue(BurstLinkQueue):
    """Burst queue of a cut link at its owning (transmitting) shard.

    Drop/trim/ECN decisions run here, at the link's owner, exactly as in
    the serial engine, but deliveries happen on the receiving shard: every
    accepted packet goes straight to the shard's outbox, where it is
    encoded and its object pooled.  So no packet stays on this queue's
    chain — the chain is empty between enqueues — and the link's occupancy
    ledger is a small deque of ``(depart, size)`` records of its own,
    drained by the same strictly-before rule.  ``live`` is pinned True so
    the base enqueue never registers a stream in the local merge heap.
    """

    __slots__ = ("outbox", "ledger")

    def __init__(self, *args: Any, outbox: List[Tuple[int, Packet]], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.outbox = outbox
        self.ledger: Deque[Tuple[int, int]] = deque()
        self.live = True

    def occupancy(self, now: int) -> int:
        ledger = self.ledger
        qb = self.queued_bytes
        while ledger and ledger[0][0] < now:
            qb -= ledger.popleft()[1]
        self.queued_bytes = qb
        return qb

    def enqueue(self, packet: Packet, now: int) -> bool:
        # drained here, the base enqueue finds an empty chain and no
        # pending departure (head_depart stays _NEVER between enqueues)
        self.occupancy(now)
        if not BurstLinkQueue.enqueue(self, packet, now):
            return False
        self.head = self.undrained = None
        self.head_depart = _NEVER
        self.ledger.append((packet.depart, packet.size))
        self.outbox.append((self._link_id, packet))
        return True


# ----------------------------------------------------------------- the shard
class ShardPacketBackend(PacketBackend):
    """Packet backend of one shard: keyed RNGs, boundary diversion, replicas.

    A flow whose packets cross shards is *replicated* lazily: the first
    boundary packet of a flow sent toward a shard carries the flow's spec
    (route, sizes, base RTT, ...), and the receiving shard materialises a
    replica ``Flow`` holding the receiver-side state.  Sender-side state
    (window, retransmissions, pull credits) only ever lives at the origin;
    ACK/NACK/PULL packets crossing back resolve to the original flow by
    key.  Drops are routed to the flow's origin shard as loss messages so
    loss timeouts run where the sender state lives, applied in a canonical
    ``(fire_time, key, seq)`` order that no shard count perturbs.
    """

    def __init__(self, plan: ShardPlan, shard_id: int) -> None:
        super().__init__()
        self.plan = plan
        self.shard_id = shard_id

    # ------------------------------------------------------------------ setup
    def setup(self, num_ranks: int, config: SimulationConfig) -> None:
        _validate_sharded(config, self.plan)
        super().setup(num_ranks, config)
        plan = self.plan
        seed = int(config.seed)
        # keyed ECN draws: per-link streams make marking decisions a
        # function of (seed, link, arrival order at that link) only.  Only
        # a queue that enters the RED band draws, so each stream is seeded
        # on its first draw
        for q in self.queues:
            q.rng = _KeyedRng(seed, _ECN_STREAM, q.link.link_id)
        # boundary diversion: replace the local queue of every outgoing cut
        # link (queues are untouched pre-traffic, so swapping objects is
        # exact); the queue object of an *incoming* cut link doubles as the
        # mailbox its deliveries are replayed from
        self._out_packets: List[Tuple[int, Packet]] = []
        self._boundary_dest: Dict[int, int] = {}
        owner = plan.device_owner
        me = self.shard_id
        for link in self.topology.links:
            if owner[link.src] == me and owner[link.dst] != me:
                self._boundary_dest[link.link_id] = owner[link.dst]
                old = self.queues[link.link_id]
                nq = _BoundaryBurstQueue(
                    link,
                    capacity=old.capacity,
                    kmin=old.kmin,
                    kmax=old.kmax,
                    rng=old.rng,
                    tx=old.tx,
                    outbox=self._out_packets,
                )
                nq._streams = self._stream_heads
                self.queues[link.link_id] = nq
        # flow identity (carried on ``Flow.key``) and replica registry
        self._flow_by_key: Dict[_FlowKey, Flow] = {}
        self._pair_seq: Dict[Tuple[int, int], int] = {}
        self._spec_sent: set = set()
        self._n_replicas = 0
        # (dest shard, key, seq, fire_time) loss notifications of the window
        self._loss_out: List[Tuple[int, _FlowKey, int, int]] = []
        self._seed = seed
        # flow key -> number of post-fault/learn route re-picks (keys the
        # re-pick stream)
        self._repick_seq: Dict[_FlowKey, int] = {}
        # load-adaptive routing reads the merged global snapshot the driver
        # broadcast at the last cadence boundary; this shard reports its
        # owned links' occupancies back at each boundary
        if self._needs_load:
            self._snap_view = np.zeros(len(self.topology.links), dtype=np.int64)
            self._owned_links = [
                link.link_id
                for link in self.topology.links
                if owner[link.src] == me
            ]

    # ------------------------------------------------------------- keyed flows
    def _start_send(self, time: int, payload: Any) -> Flow:
        rank, dst = payload[0], payload[1]
        pair = (rank, dst)
        occurrence = self._pair_seq.get(pair, 0)
        self._pair_seq[pair] = occurrence + 1
        # route ties draw from the flow-keyed stream: identical for every
        # shard count, independent of global event interleaving
        routing = self.routing
        saved = routing.rng
        routing.rng = _KeyedRng(self._seed, _FLOW_STREAM, rank, dst, occurrence)
        try:
            flow = super()._start_send(time, payload)
        finally:
            routing.rng = saved
        flow.key = key = (rank, dst, occurrence)
        self._flow_by_key[key] = flow
        return flow

    def _flow_spec(self, flow: Flow) -> Tuple:
        """Picklable flow description a peer shard can build a replica from."""
        return (
            flow.size,
            flow.tag,
            flow.op_id,
            flow.stream,
            flow.post_time,
            flow.mtu,
            flow.route,
            flow.ack_route,
            # shipped, not recomputed: a replica never looks up anything
            # for a foreign pair (route-cache counter parity)
            flow.cc.base_rtt_ns,
        )

    def _resolve_flow(self, key: _FlowKey, spec: Optional[Tuple]) -> Flow:
        flow = self._flow_by_key.get(key)
        if flow is not None:
            return flow
        if spec is None:
            raise RuntimeError(
                f"boundary packet for unknown flow {key} arrived without its spec"
            )
        size, tag, op_id, stream, post_time, mtu, route, ack_route, rtt = spec
        cfg = self.config
        cc = create_congestion_control(
            cfg.cc_algorithm,
            mtu=mtu,
            initial_window_packets=cfg.initial_window_packets,
            base_rtt_ns=rtt,
        )
        self._n_replicas += 1
        flow = Flow(
            flow_id=-self._n_replicas,  # negative: never collides with local ids
            src=key[0],
            dst=key[1],
            size=size,
            tag=tag,
            op_id=op_id,
            stream=stream,
            post_time=post_time,
            mtu=mtu,
            cc=cc,
            route=route,
            ack_route=ack_route,
        )
        flow.route_q0 = self.queues[route[0]]
        flow.ack_q0 = self.queues[ack_route[0]]
        flow.key = key
        self._flow_by_key[key] = flow
        return flow

    # -------------------------------------------------------------------- loss
    def _handle_data_drop(self, packet: Packet, now: int) -> None:
        # all loss timeouts (local and foreign) funnel through the barrier
        # so their insertion order is canonical under every shard count;
        # min_retransmit_timeout > lookahead guarantees the fire time lies
        # beyond the current window edge
        flow = packet.flow
        self._loss_out.append(
            (
                self.plan.rank_owner[flow.src],
                flow.key,
                packet.seq,
                now + self.config.min_retransmit_timeout,
            )
        )

    # ----------------------------------------------------------------- faults
    def _apply_fault(self, time: int, payload: Tuple[str, List[int]]) -> None:
        if self.shard_id:
            self.events.executed -= 1  # every shard replays it; shard 0 counts it
        super()._apply_fault(time, payload)

    def _cp_switch_learn(self, time: int, payload: Tuple) -> None:
        if self.shard_id:
            self.events.executed -= 1
        super()._cp_switch_learn(time, payload)

    def _fault_flow_live(self, flow: Flow) -> bool:
        # replicas never re-pick (every boundary packet ships its route);
        # origin flows use sender-side retirement — delivery
        # happens on the destination's shard, so ``message_delivered`` is
        # not observable here.  ACKed ⊆ delivered, so this re-picks a
        # superset of serial's flows; the difference is inert unless a
        # delivered-but-unACKed flow holds a pending spurious retransmission
        # (see the module docstring's serial-equality caveat).
        if flow.flow_id < 0:
            return False
        return not flow.all_acked()

    def _fault_repick(self, flow: Flow) -> None:
        key = flow.key
        nth = self._repick_seq.get(key, 0)
        self._repick_seq[key] = nth + 1
        routing = self.routing
        saved = routing.rng
        routing.rng = _KeyedRng(self._seed, _REPICK_STREAM, *key, nth)
        try:
            super()._fault_repick(flow)
        finally:
            routing.rng = saved

    def _reroute_pick(self, pkt: Packet, hop: int, now: int, n: int) -> int:
        # keyed by the packet's simulated identity: whichever shard holds
        # the packet when the reroute happens draws the same index
        key = pkt.flow.key
        rng = np.random.default_rng(
            (self._seed, _REROUTE_STREAM, key[0], key[1], key[2], pkt.seq, hop, now)
        )
        return int(rng.integers(n))

    # ----------------------------------------------------------- load snapshots
    def _link_load_view(self) -> "np.ndarray":
        return self._snap_view

    def _collect_load_snapshot(self, at: int) -> "np.ndarray":
        """Occupancy of every link this shard owns, as of time ``at``."""
        view = np.zeros(len(self.queues), dtype=np.int64)
        queues = self.queues
        for link_id in self._owned_links:
            view[link_id] = queues[link_id].occupancy(at)
        return view

    # ---------------------------------------------------------------- windows
    def next_event_time(self) -> Optional[int]:
        """Timestamp of this shard's earliest pending event (None when idle)."""
        t = self.events.peek_time()
        if self._stream_heads:
            st = self._stream_heads[0][0]
            if t is None or st < t:
                return st
        return t

    def advance_window(
        self,
        until: int,
        inbox: Sequence[Tuple],
        snap_at: Optional[int] = None,
        load_view: Optional["np.ndarray"] = None,
    ) -> Optional["np.ndarray"]:
        """Apply the inbox, run all events up to ``until``, snapshot.

        When the driver asks (``snap_at``), returns this shard's owned-link
        load snapshot taken after the window drained.
        """
        if load_view is not None:
            self._snap_view = load_view
        if inbox:
            self._apply_inbox(inbox)
        self._run_merged(until)
        if snap_at is None:
            return None
        return self._collect_load_snapshot(snap_at)

    def _apply_inbox(self, inbox: Sequence[Tuple]) -> None:
        packets: List[Tuple] = []
        losses: List[Tuple] = []
        for _deliver, kind, payload in inbox:
            (packets if kind == _MSG_PACKET else losses).append(payload)
        # canonical application orders — both shard-count-invariant
        losses.sort(key=lambda p: (p[2], p[0], p[1]))  # (fire, key, seq)
        for key, seq, fire in losses:
            self.events.schedule(fire, self._on_loss_timeout, (self._flow_by_key[key], seq))
        packets.sort(key=lambda p: (p[1], p[0]))  # (depart, link)
        streams = self._stream_heads
        for payload in packets:
            link_id, depart, pkind, seq, size, route, hop, sent, ecn, trimmed, key, spec = payload
            flow = self._resolve_flow(key, spec)
            pkt = self._alloc_packet(flow, pkind, seq, size, route, sent)
            pkt.hop = hop
            pkt.ecn = ecn
            pkt.trimmed = trimmed
            pkt.depart = depart
            # the cut link's local queue object is the mailbox: per-link
            # departures are monotone, so linking at the tail keeps its
            # chain sorted.  Its ledger lives at the sending shard, so the
            # packet is linked for delivery only (it is never undrained)
            q = self.queues[link_id]
            if q.head is None:
                q.head = pkt
            else:
                q.tail.nxt = pkt
            q.tail = pkt
            pkt.nxt = None
            if not q.live:
                q.live = True
                heappush(streams, (depart + q.latency, depart, link_id))

    def drain_outbox(self) -> List[Tuple[int, Tuple]]:
        """Encode and clear the window's boundary traffic as (dest, message).

        A message is ``(deliver_time, kind, payload)``; the driver only
        reads ``deliver_time`` (for the next window's floor) and routes the
        payload to ``dest``'s inbox.
        """
        msgs: List[Tuple[int, Tuple]] = []
        links = self.topology.links
        spec_sent = self._spec_sent
        for link_id, pkt in self._out_packets:
            dest = self._boundary_dest[link_id]
            flow = pkt.flow
            key = flow.key
            spec = None
            sk = (key, dest)
            if sk not in spec_sent:
                spec_sent.add(sk)
                spec = self._flow_spec(flow)
            deliver = pkt.depart + links[link_id].latency
            msgs.append(
                (
                    dest,
                    (
                        deliver,
                        _MSG_PACKET,
                        (
                            link_id,
                            pkt.depart,
                            pkt.kind,
                            pkt.seq,
                            pkt.size,
                            pkt.route,
                            pkt.hop,
                            pkt.sent_time,
                            pkt.ecn,
                            pkt.trimmed,
                            key,
                            spec,
                        ),
                    ),
                )
            )
            pkt.flow = None
            self._packet_free.append(pkt)
        self._out_packets.clear()
        for dest, key, seq, fire in self._loss_out:
            msgs.append((dest, (fire, _MSG_LOSS, (key, seq, fire))))
        self._loss_out.clear()
        return msgs


# ------------------------------------------------------------ shard tasks
# Each runs in the worker process pinned to one shard (repro.workers):
# ``state.payload`` is ``(plan, schedule, config, op_groups)``, and
# _shard_start leaves the shard's backend and scheduler on ``state`` for
# the window and collect tasks.
def _shard_start(state: Any, shard_id: int) -> Optional[int]:
    plan, schedule, config, op_groups = state.payload
    backend = state.backend = ShardPacketBackend(plan, shard_id)
    scheduler = state.scheduler = GoalScheduler(
        schedule,
        backend=backend,
        config=config,
        validate=False,  # the driving scheduler already validated
        op_groups=op_groups,
        ranks=plan.shard_ranks[shard_id],
    )
    scheduler.start()
    return backend.next_event_time()


def _shard_advance(
    state: Any, *window: Any
) -> Tuple[List[Tuple[int, Tuple]], Optional[int], Optional["np.ndarray"]]:
    backend = state.backend
    snap = backend.advance_window(*window)
    return backend.drain_outbox(), backend.next_event_time(), snap


def _shard_collect(state: Any) -> Tuple[SimulationResult, int]:
    result = state.scheduler.finish(0.0)
    result.links.names = ()  # the driver names the merged record itself
    return result, state.backend.events.executed


# ---------------------------------------------------------------- the driver
def run_sharded(
    schedule: GoalSchedule,
    config: SimulationConfig,
    op_groups: Optional[List[List[int]]] = None,
    window_log: Optional[List[Tuple[int, int]]] = None,
) -> Tuple[SimulationResult, int]:
    """Simulate ``schedule`` across ``config.shards`` processes.

    Returns ``(result, events_executed)`` where the event count sums every
    shard's loop.  Each shard runs in its own worker process
    (:mod:`repro.workers`, the substrate the sweeps use too), which
    inherits the schedule under ``fork`` instead of unpickling it.  There
    is no in-process fallback: a worker that dies raises one
    :class:`~repro.workers.WorkerError` naming its shard and exit code, and
    where processes cannot start the error says to pass ``shards=1``.

    ``window_log``, when given a list, receives one ``(floor, until)`` pair
    per barrier window.  The property suite uses it to check that every
    edge respects the lookahead.
    """
    from repro.network.routing import ROUTING_STRATEGIES

    wall_start = _time.perf_counter()
    topology = build_topology(config, schedule.num_ranks)
    shards = min(config.shards, topology.num_hosts)
    plan = plan_shards(topology, schedule.num_ranks, shards)
    _validate_sharded(config, plan)
    if shards < 2:
        # degenerate clamp (single-host topology): serial engine, exact
        scheduler = GoalScheduler(
            schedule,
            backend="htsim",
            config=config.replace(shards=1),
            validate=False,
            op_groups=op_groups,
        )
        result = scheduler.run()
        return result, scheduler.events_executed

    lookahead = plan.lookahead
    inboxes: List[List[Tuple]] = [[] for _ in range(shards)]

    # load snapshots only exist when the routing strategy reads link loads;
    # the cadence is a property of the topology alone, never of the shard
    # layout, so results stay shard-count-invariant
    strategy = ROUTING_STRATEGIES.get(config.routing)
    snap_interval = 0
    if strategy is not None and strategy.needs_link_load:
        snap_interval = topology.min_link_latency()
    snap_time = 0  # cadence boundary of the view the shards currently hold
    pending_view: Optional["np.ndarray"] = None  # merged, awaiting broadcast

    with workers.Workers(
        shards, (plan, schedule, config, op_groups), "shard", "shards=1"
    ) as pool:
        next_times = pool.each(_shard_start, [(i,) for i in range(shards)])

        def _advance_all(until: int, snap_at: Optional[int]) -> List["np.ndarray"]:
            nonlocal inboxes, next_times, pending_view
            outs = pool.each(
                _shard_advance,
                [(until, inboxes[i], snap_at, pending_view) for i in range(shards)],
            )
            pending_view = None
            inboxes = [[] for _ in range(shards)]
            next_times = []
            views: List["np.ndarray"] = []
            for out_msgs, nt, snap in outs:
                next_times.append(nt)
                if snap is not None:
                    views.append(snap)
                for dest, msg in out_msgs:
                    inboxes[dest].append(msg)
            return views

        while True:
            floor: Optional[int] = None
            for t in next_times:
                if t is not None and (floor is None or t < floor):
                    floor = t
            for box in inboxes:
                for msg in box:
                    if floor is None or msg[0] < floor:
                        floor = msg[0]
            if floor is None:
                break  # every shard idle and no traffic in flight: done
            if snap_interval:
                # idle-gap jump: refresh the snapshot at the last cadence
                # boundary strictly before the next activity in one empty
                # window instead of stepping cadence-by-cadence across it
                target = (floor - 1) // snap_interval * snap_interval
                if target > snap_time:
                    if window_log is not None:
                        window_log.append((floor, target))
                    views = _advance_all(target, target)
                    snap_time = target
                    pending_view = _merge_views(views)
                    continue
            until = floor + lookahead
            snap_at = None
            if snap_interval and snap_time + snap_interval <= until:
                # never run past the snapshot the window's draws must read
                until = snap_time + snap_interval
                snap_at = until
            if window_log is not None:
                window_log.append((floor, until))
            views = _advance_all(until, snap_at)
            if snap_at is not None:
                snap_time = snap_at
                pending_view = _merge_views(views)
        collected = pool.each(_shard_collect, [()] * shards)

    wall = _time.perf_counter() - wall_start
    result = _merge_results(collected, schedule, wall)
    result.links.names = tuple(link.name for link in topology.links)
    return result, sum(c[1] for c in collected)


def _merge_views(views: Sequence["np.ndarray"]) -> "np.ndarray":
    """Sum per-shard owned-link snapshots into the global load view.

    Every link is owned by exactly one shard (its source device's owner)
    and each shard reports zeros elsewhere, so the sum is the exact union.
    """
    merged = views[0]
    for v in views[1:]:
        merged = merged + v
    return merged


def _merge_results(
    collected: Sequence[Tuple[SimulationResult, int]],
    schedule: GoalSchedule,
    wall: float,
) -> SimulationResult:
    """Fold per-shard results into one :class:`SimulationResult`.

    Counters sum (each event is counted at exactly one shard), the per-link
    record sums elementwise (a link's counters live on its owner shard, as
    in :func:`_merge_views`), per-rank and per-group finish times max-merge
    (each rank completes at one shard), and message records concatenate in
    a canonical sort.  Convergence records are identical on every shard
    (the advertisement wave replays on each one's full-topology replica),
    so shard 0's copy is canonical.
    """
    results = [c[0] for c in collected]
    stats: NetworkStats = results[0].stats
    links: LinkStats = results[0].links
    for r in results[1:]:
        stats = stats.merge(r.stats)
        links = links.merge(r.links)
    rank_finish = [0] * schedule.num_ranks
    groups: Dict[int, GroupStats] = {}
    finish = 0
    ops = 0
    for r in results:
        if r.finish_time_ns > finish:
            finish = r.finish_time_ns
        ops += r.ops_completed
        for i, t in enumerate(r.rank_finish_times_ns):
            if t > rank_finish[i]:
                rank_finish[i] = t
        for group, gs in r.groups.items():
            agg = groups.get(group)
            groups[group] = gs if agg is None else agg.merge(gs)
    # a stable sort on (completion_time, src, dst, tag): lexsort's last key is the primary one
    records = np.concatenate([r.message_records.columns() for r in results])
    order = np.lexsort((records[:, 3], records[:, 1], records[:, 0], records[:, 5]))
    return SimulationResult(
        finish_time_ns=finish,
        rank_finish_times_ns=rank_finish,
        stats=stats,
        message_records=MessageRecords.from_columns(records[order]),
        ops_completed=ops,
        backend="htsim",
        wall_clock_s=wall,
        groups=dict(sorted(groups.items())),
        links=links,
        convergence_records=list(results[0].convergence_records),
    )
