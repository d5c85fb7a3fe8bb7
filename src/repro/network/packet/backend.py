"""Packet-level backend implementing the unified ATLAHS backend API.

The backend owns

* the topology and one :class:`~repro.network.packet.linkqueue.
  BurstLinkQueue` per directed link, which serialises a burst of packets
  arithmetically and fires exactly one event per packet (its delivery),
* a :class:`~repro.network.routing.RoutingStrategy` that picks each flow's
  route at injection time from the topology's memoized route tables
  (minimal/ECMP, Valiant, or UGAL-style adaptive fed by live queue
  occupancy, read per link through one view),
* one :class:`~repro.network.packet.flow.Flow` per GOAL send,
* per-flow congestion control (sender-based MPRDMA / Swift / DCTCP /
  fixed-window, or receiver-driven NDP with trimming and pull pacing),
* the host compute model for ``calc`` ops and per-message host overheads,
* message matching so GOAL ``recv`` ops complete when their message has
  fully arrived.

Semantics mirror the message-level backend where they overlap: a ``send`` op
completes *locally* once its last byte has been handed to the sender's
uplink (so chained chunk sends pipeline rather than serialise on round
trips), while the message itself counts as delivered when the last data
packet reaches the destination host — that instant feeds both the matching
``recv`` and the MCT statistics.

Hot path
--------
One scheduler event (a window opening on an ACK, a flow becoming ready)
advances a flow's whole contiguous packet train: the injection loop enqueues
every packet the window allows, and the burst queue turns each into a single
delivery event with an arithmetically computed timestamp.  Packet objects
are pooled (``__slots__`` records reused through a free list), a DATA packet
that reaches its destination turns around in place as its own ACK (or NACK)
with no helper call on the way, a flow's ECMP route is drawn in closed form
and its base RTT summed from per-link delay lists (no per-pair table or
cache on a healthy fat tree), and per-size serialisation times are memoized
in one table per link bandwidth — see ``docs/performance.md`` for
measurements.
"""
from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.network.backend import CompletionCallback, LinkStats, NetworkBackend, NetworkStats
from repro.network.config import SimulationConfig
from repro.network.congestion import create_congestion_control
from repro.network.events import EventQueue
from repro.network.faults import NetworkPartitionError
from repro.network.packet.flow import Flow
from repro.network.packet.linkqueue import _NEVER, BurstLinkQueue
from repro.network.packet.packet import ACK, DATA, NACK, PULL, Packet


class _PendingRecv:
    """A GOAL recv waiting for its message to fully arrive."""

    __slots__ = ("op_id", "rank", "stream", "post_time")

    def __init__(self, op_id: int, rank: int, stream: int, post_time: int) -> None:
        self.op_id = op_id
        self.rank = rank
        self.stream = stream
        self.post_time = post_time


class _PullPacer:
    """Per-host pacer that emits NDP pull credits at the host's link rate.

    Pacing is tracked in cumulative byte-time from the pacer's activation
    (``epoch``): the k-th pull of an active burst is emitted at
    ``epoch + round(k * mtu / bandwidth)``, the same integer-ns byte-time
    arithmetic the link queues use.  The legacy per-gap formula
    ``max(1, round(mtu / bandwidth))`` accumulated up to one nanosecond of
    error per pull at high link bandwidths (and clamped sub-ns gaps to a
    full nanosecond); the cumulative form keeps the long-run pull rate exact.
    """

    __slots__ = ("queue", "active", "epoch", "emitted")

    def __init__(self) -> None:
        self.queue: Deque[Flow] = deque()
        self.active = False
        self.epoch = 0
        self.emitted = 0


class _Occupancy:
    """Queue occupancy by link id: ``view[l]`` is link ``l``'s queued bytes now.

    A read drains only the queue it reads.  Drains are exact at any instant,
    so a routing decision costs the links of the candidates it weighs, not
    every queue of the fabric.
    """

    __slots__ = ("queues", "events")

    def __init__(self, queues: List[BurstLinkQueue], events: EventQueue) -> None:
        self.queues = queues
        self.events = events

    def __getitem__(self, link_id: int) -> int:
        return self.queues[link_id].occupancy(self.events._now)


class PacketBackend(NetworkBackend):
    """Packet-level simulator with queues, ECN, drops/trims and CC."""

    name = "htsim"

    # ------------------------------------------------------------------ setup
    def setup(self, num_ranks: int, config: SimulationConfig) -> None:
        super().setup(num_ranks, config)
        self._bring_up_fabric()
        # control-plane convergence (see repro.network.control_plane): under
        # "oracle" (the default) no ControlPlane object exists and every
        # switch acts on the topology's failed set at once.  Under "dv"/"ls"
        # fault events take the stale-table path instead: _cp_stale counts
        # learn-time groups still in flight.  With an empty schedule every
        # fault path below is gated off entirely.
        self._cp_stale = 0
        if self._cp is not None:
            self._host_attach = [
                self.topology.attachment(h) for h in range(num_ranks)
            ]
        kmin = int(config.ecn_kmin_frac * config.buffer_size)
        kmax = int(config.ecn_kmax_frac * config.buffer_size)
        self._stream_heads: List[Tuple[int, int, int]] = []
        # serialisation ns per packet size, one table per distinct link
        # bandwidth (bandwidths are final here: static degradations applied)
        tables: Dict[float, Dict[int, int]] = {}
        self.queues = [
            BurstLinkQueue(
                link,
                capacity=config.buffer_size,
                kmin=kmin,
                kmax=kmax,
                rng=self.rng,
                tx=tables.setdefault(link.bandwidth, {}),
            )
            for link in self.topology.links
        ]
        for q in self.queues:
            q._streams = self._stream_heads
        # flows a fault can still affect, by flow id in start order; a flow
        # leaves once _fault_flow_live turns false (see _message_arrived).
        # Only fault and learn events read it, so it stays empty without a
        # fault schedule.
        self.live_flows: Dict[int, Flow] = {}
        self._n_flows = 0
        self.pull_pacers: Dict[int, _PullPacer] = {}
        self._pull_bytes = config.mtu
        self._pull_bandwidth = config.link_bandwidth
        self._pull_credits: Dict[int, int] = {}
        self._needs_load = self.routing.needs_link_load
        self._occupancy = _Occupancy(self.queues, self.events)
        # per-link one-way delay of a full data packet / an ACK; link
        # bandwidths are final here (static degradations already applied)
        self._data_ns = self.topology.link_delays(config.mtu)
        self._ack_ns = self.topology.link_delays(config.ack_size)
        self._packet_free: List[Packet] = []
        # hot counters kept as plain ints and folded into stats on collect
        self._n_sent = 0
        self._n_delivered = 0

    # ------------------------------------------------------------------- flows
    def _link_load_view(self) -> "_Occupancy":
        """The link load a load-reading strategy is handed: the occupancy view."""
        return self._occupancy

    def _pick_route(self, src: int, dst: int, size: int = 0) -> Tuple[int, ...]:
        # control-plane convergence: route with the *belief* of the source's
        # first-hop switch while any switch view is stale.  A view equal to
        # the truth takes the normal (memoized alive-table) path.
        cp = self._cp
        if cp is not None and self._cp_stale:
            view = cp.view_key(self._host_attach[src])
            if view != self.topology.failed_links:
                load = self._link_load_view() if self._needs_load else None
                return self.routing.select_route(src, dst, size, load, view)
        if not self._needs_load:
            return self.routing.select_route(src, dst, size, None)
        return self.routing.select_route(src, dst, size, self._link_load_view())

    def _base_rtt(self, route: Tuple[int, ...], ack_route: Tuple[int, ...]) -> int:
        """Unloaded RTT: one MTU packet out along ``route``, its ACK back."""
        return sum(map(self._data_ns.__getitem__, route)) + sum(
            map(self._ack_ns.__getitem__, ack_route)
        )

    def _alloc_packet(
        self, flow: Flow, kind: int, seq: int, size: int, route: Tuple[int, ...], sent_time: int
    ) -> Packet:
        free = self._packet_free
        if free:
            return free.pop().reset(flow, kind, seq, size, route, sent_time)
        return Packet(flow, kind, seq, size, route, sent_time=sent_time)

    def _start_send(self, time: int, payload: Any) -> Flow:
        rank, dst, size, tag, stream, op_id = payload
        cfg = self.config
        _, overhead_end = self.host.reserve(rank, stream, time, cfg.host_overhead)
        route = self._pick_route(rank, dst, size)
        ack_route = self._pick_route(dst, rank, cfg.ack_size)
        cc = create_congestion_control(
            cfg.cc_algorithm,
            mtu=cfg.mtu,
            initial_window_packets=cfg.initial_window_packets,
            base_rtt_ns=self._base_rtt(route, ack_route),
        )
        flow = Flow(
            flow_id=self._n_flows,
            src=rank,
            dst=dst,
            size=size,
            tag=tag,
            op_id=op_id,
            stream=stream,
            post_time=time,
            mtu=cfg.mtu,
            cc=cc,
            route=route,
            ack_route=ack_route,
        )
        flow.route_q0 = self.queues[route[0]]
        flow.ack_q0 = self.queues[ack_route[0]]
        if self._faults_enabled:
            self.live_flows[flow.flow_id] = flow
        self._n_flows += 1
        self.events.schedule(overhead_end, self._flow_ready, flow)
        return flow

    def _flow_ready(self, time: int, flow: Flow) -> None:
        if flow.cc.receiver_driven:
            # NDP: blast the initial window at line rate, the rest is pulled.
            burst = min(flow.cc.initial_window_packets, flow.num_packets)
            for _ in range(burst):
                seq = flow.next_seq_to_send()
                if seq is None:
                    break
                self._send_data_packet(flow, seq, time)
        else:
            self._try_send(flow, time, flow.cc.window_bytes())

    def _try_send(self, flow: Flow, now: int, window: int) -> None:
        """Advance the flow's packet train as far as ``window`` bytes allow.

        This whole loop costs one heap operation per injected packet — the
        burst queue serialises the train arithmetically, so a
        single ACK event can open the window and launch a contiguous burst
        without any per-packet transmission events.  ``window`` is the
        congestion window in bytes: no feedback is processed here, so the
        caller computes it once (``on_ack`` returns it).  Sender-based
        transports only.
        """
        mtu = flow.mtu
        n = flow.num_packets
        send = self._send_data_packet
        while True:
            inflight = flow.inflight_bytes
            if inflight + mtu > window and inflight != 0:
                return
            if flow.retransmit_queue:
                seq = flow.next_seq_to_send()
                if seq is None:
                    return
            else:
                seq = flow.next_new_seq
                if seq >= n:
                    return
                flow.next_new_seq = seq + 1
            send(flow, seq, now)

    def _send_data_packet(self, flow: Flow, seq: int, now: int, retransmission: bool = False) -> None:
        size = flow.mtu if seq != flow.num_packets - 1 else flow.last_packet_size
        route = flow.route
        free = self._packet_free
        if free:
            pkt = free.pop()
            pkt.flow = flow
            pkt.kind = DATA
            pkt.seq = seq
            pkt.size = size
            pkt.route = route
            pkt.hop = 0
            pkt.hops = len(route)
            pkt.ecn = False
            pkt.trimmed = False
            pkt.sent_time = now
        else:
            pkt = Packet(flow, DATA, seq, size, route, now)
        flow.inflight_bytes += size
        if flow.trimmable:
            # only the NDP pull path reads per-seq send times; skip the dict
            # write for sender-driven transports (the packet carries its own)
            flow.sent_times[seq] = now
        self._n_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
        if self.op_group is not None:
            self._charge_group_links(flow.op_id, route, size)
        if not flow.route_q0.enqueue(pkt, now):
            self._handle_data_drop(pkt, now)
            pkt.flow = None
            free.append(pkt)
        if (
            not flow.send_op_completed
            and flow.next_new_seq >= flow.num_packets
            and not flow.retransmit_queue
        ):
            flow.send_op_completed = True
            self.on_complete(now, (flow.src, flow.op_id))

    # --------------------------------------------------------------- forwarding
    def _handle_data_drop(self, packet: Packet, now: int) -> None:
        """A data packet was dropped: notify the sender after a timeout."""
        flow = packet.flow
        self.events.schedule(
            now + self.config.min_retransmit_timeout, self._on_loss_timeout, (flow, packet.seq)
        )

    def _on_loss_timeout(self, now: int, payload: Tuple[Flow, int]) -> None:
        flow, seq = payload
        if seq in flow.acked:
            return
        size = flow.packet_size(seq)
        flow.inflight_bytes = max(0, flow.inflight_bytes - size)
        flow.cc.on_loss()
        if flow.mark_for_retransmission(seq):
            if flow.cc.receiver_driven:
                self._sender_pull_kick(flow, now)
            else:
                seq_to_send = flow.next_seq_to_send()
                if seq_to_send is not None:
                    self._send_data_packet(flow, seq_to_send, now, retransmission=True)

    # ------------------------------------------------------------------ faults
    def _fault_flow_live(self, flow: Flow) -> bool:
        """Whether a fault/learn event should re-pick ``flow``'s route.

        The serial engine uses delivery knowledge (a fully delivered message
        needs no routing).  The sharded engine overrides this with a
        sender-observed predicate because delivery happens on the
        destination's shard.
        """
        return not flow.message_delivered

    def _repickable_flows(self) -> List[Flow]:
        """The live flows in start order, releasing any that retired since.

        Serial flows leave the registry the instant they are delivered; the
        sharded engine's sender-observed liveness ends on an ACK (hot path),
        so its retired flows are swept here, at the next fault/learn event.
        """
        live = self.live_flows
        for flow in [f for f in live.values() if not self._fault_flow_live(f)]:
            del live[flow.flow_id]
        return list(live.values())

    def _fault_repick(self, flow: Flow) -> None:
        """Re-pick ``flow``'s route after a fabric change (fault or learn).

        Overridable: the sharded engine wraps the pick in a flow-keyed RNG
        stream so ECMP/Valiant ties stay shard-count-invariant.
        """
        flow.route = self._pick_route(flow.src, flow.dst, flow.size)
        flow.route_q0 = self.queues[flow.route[0]]

    def _reroute_pick(self, pkt: Packet, hop: int, now: int, n: int) -> int:
        """Tie-break index among ``n`` surviving reroute candidates.

        Serial: the backend's event-order-consumed RNG (mirrors injection
        ECMP).  Sharded override: a draw keyed by the packet's simulated
        identity, invariant under shard layout.
        """
        return int(self.rng.integers(n))

    def _apply_fault(self, time: int, payload: Tuple[str, List[int]]) -> None:
        """Apply one timed fault event and invalidate every affected route.

        On top of the shared link-state flip this re-picks the cached route
        of every live flow whose current route crosses a failed link — so
        retransmissions and still-unsent packets immediately use surviving
        candidates.  A live flow whose pair has no
        surviving candidate raises
        :class:`~repro.network.faults.NetworkPartitionError`.
        """
        wave = super()._apply_fault(time, payload)
        if wave is not None:
            # convergent control plane: no flow learns anything yet — every
            # switch's view (plus its sources' flows) updates only when the
            # advertisement wave reaches it.
            kind, ids = payload
            for t, switches in wave:
                self._cp_stale += 1
                self.events.schedule(
                    t, self._cp_switch_learn, (kind, tuple(ids), switches)
                )
            return
        failed = self.topology.failed_links
        if not failed:
            return
        for flow in self._repickable_flows():
            for link in flow.route:
                if link in failed:
                    self._fault_repick(flow)
                    break

    def _cp_switch_learn(self, time: int, payload: Tuple[str, Tuple[int, ...], Tuple[int, ...]]) -> None:
        """One learn-time group of the convergence wave reaches its switches.

        The switches' views absorb the event, and — modelling ECMP table
        re-hash churn — every live flow whose source attaches to a switch
        that just learned gets its route re-picked under the refreshed view
        (not only flows that crossed a failed link: reconvergence rebuilds
        the hash buckets, perturbing placement across the board).
        """
        kind, ids, switches = payload
        cp = self._cp
        cp.apply(switches, kind, ids)
        self._cp_stale -= 1
        learned = set(switches)
        attach = self._host_attach
        for flow in self._repickable_flows():
            if attach[flow.src] in learned:
                self._fault_repick(flow)

    def _reroute_packet(self, pkt: Packet, hop: int, now: int) -> bool:
        """Force an in-flight DATA packet onto a surviving candidate route.

        The new route must share the packet's already-traversed link prefix
        (``pkt.route[:hop]``); ties among surviving candidates break with
        the backend RNG, mirroring injection-time ECMP.  Returns ``False``
        when no candidate shares the prefix — the packet is stranded at a
        device with no alive continuation and is dropped (its flow recovers
        it by loss timeout over the flow's re-picked route).
        """
        flow = pkt.flow
        try:
            candidates = self.topology.alive_table(flow.src, flow.dst)
        except NetworkPartitionError:
            # only reachable for stragglers of already-delivered flows
            # (_apply_fault raises for live flows on partitioned pairs)
            candidates = ()
        prefix = pkt.route[:hop]
        matching = [r for r in candidates if r[:hop] == prefix]
        if not matching:
            self.stats.packets_lost_to_faults += 1
            self._handle_data_drop(pkt, now)
            return False
        if len(matching) == 1:
            route = matching[0]
        else:
            route = matching[self._reroute_pick(pkt, hop, now, len(matching))]
        pkt.route = route
        pkt.hops = len(route)
        self.stats.packets_rerouted += 1
        return True

    def _fault_forward(self, pkt: Packet, hop: int, now: int) -> bool:
        """Forward-time fault handling for a DATA packet crossing a failure.

        Under the oracle control plane this is exactly :meth:`_reroute_packet`
        (local repair everywhere, instantly).  Under a convergent control
        plane the switch holding the packet repairs only if its view already
        contains the dead link; a stale switch forwards into the black hole —
        the packet is dropped, counted as ``packets_blackholed``, and its
        flow recovers it by loss timeout (re-black-holing until the source's
        first-hop switch reconverges, which is what makes convergence loss
        grow with propagation delay).  Returns whether the packet survives.
        """
        cp = self._cp
        if cp is not None and self._cp_stale:
            switch = self.topology.links[pkt.route[hop - 1]].dst
            if not cp.knows(switch, pkt.route, hop):
                self.stats.packets_blackholed += 1
                self._handle_data_drop(pkt, now)
                return False
        return self._reroute_packet(pkt, hop, now)

    def _masked(self, route: Tuple[int, ...], hop: int) -> bool:
        """Whether any remaining hop of ``route`` crosses a failed link."""
        failed = self.topology.failed_links
        for link in route[hop:]:
            if link in failed:
                return True
        return False

    # ------------------------------------------------------------ receiver side
    def _message_arrived(self, flow: Flow, now: int) -> None:
        """The last missing data packet of ``flow`` reached its destination."""
        flow.message_delivered = True
        if self._faults_enabled and not self._fault_flow_live(flow):
            self.live_flows.pop(flow.flow_id, None)
        self._message_delivered(
            flow.src, flow.dst, flow.size, flow.tag, flow.post_time, now, flow.op_id
        )
        matched = self.matcher.post_arrival(flow.src, flow.dst, flow.tag, now)
        if matched is not None:
            self._complete_recv(matched, now)

    def _post_recv(self, time: int, payload: Any) -> None:
        rank, src, size, tag, stream, op_id = payload
        recv = _PendingRecv(op_id, rank, stream, time)
        arrival_time = self.matcher.post_recv(src, rank, tag, recv)
        if arrival_time is not None:
            self._complete_recv(recv, max(arrival_time, time))

    def _complete_recv(self, recv: _PendingRecv, arrival_time: int) -> None:
        earliest = max(arrival_time, recv.post_time)
        _, end = self.host.reserve(recv.rank, recv.stream, earliest, self.config.host_overhead)
        self.events.schedule(end, self.on_complete, (recv.rank, recv.op_id))

    # -------------------------------------------------------------- sender side
    def _handle_nack(self, packet: Packet, now: int) -> None:
        flow = packet.flow
        size = flow.packet_size(packet.seq)
        flow.inflight_bytes = max(0, flow.inflight_bytes - size)
        flow.cc.on_loss()
        flow.mark_for_retransmission(packet.seq)
        self._sender_pull_kick(flow, now)

    def _handle_pull(self, packet: Packet, now: int) -> None:
        flow = packet.flow
        self._pull_credits[flow.flow_id] = self._pull_credits.get(flow.flow_id, 0) + 1
        self._sender_pull_kick(flow, now)

    def _sender_pull_kick(self, flow: Flow, now: int) -> None:
        """Spend banked pull credits on whatever the flow can currently send."""
        credits = self._pull_credits.get(flow.flow_id, 0)
        while credits > 0:
            seq = flow.next_seq_to_send()
            if seq is None:
                break
            retransmission = seq in flow.sent_times
            self._send_data_packet(flow, seq, now, retransmission=retransmission)
            credits -= 1
        self._pull_credits[flow.flow_id] = credits

    # --------------------------------------------------------------- NDP pulls
    def _request_pull(self, flow: Flow, now: int) -> None:
        """Receiver-side: ask the per-host pacer to emit one pull for ``flow``."""
        pacer = self.pull_pacers.setdefault(flow.dst, _PullPacer())
        pacer.queue.append(flow)
        if not pacer.active:
            pacer.active = True
            pacer.epoch = now
            pacer.emitted = 0
            self.events.schedule(now, self._emit_pull, flow.dst)

    def _emit_pull(self, now: int, host: int) -> None:
        pacer = self.pull_pacers[host]
        if not pacer.queue:
            pacer.active = False
            return
        flow = pacer.queue.popleft()
        self._send_control(flow, PULL, 0, flow.ack_route, now)
        pacer.emitted += 1
        if pacer.queue:
            # cumulative byte-time pacing: pull k of this burst goes out at
            # epoch + round(k * mtu / bandwidth), never drifting off rate
            next_t = pacer.epoch + int(
                round(pacer.emitted * self._pull_bytes / self._pull_bandwidth)
            )
            self.events.schedule(next_t if next_t > now else now, self._emit_pull, host)
        else:
            pacer.active = False

    def _send_control(self, flow: Flow, kind: int, seq: int, route: Tuple[int, ...], now: int) -> None:
        pkt = self._alloc_packet(flow, kind, seq, self.config.ack_size, route, now)
        self.queues[route[0]].enqueue(pkt, now)

    # -------------------------------------------------------------------- run
    def run(self, on_complete: CompletionCallback) -> int:
        self._require_setup()
        self.on_complete = on_complete
        return self._run_merged()

    def _run_merged(self, until: Optional[int] = None) -> int:
        """The packet engine's event loop.

        Per-queue deliveries are already time-sorted FIFOs, so instead of
        funnelling every delivery through the global heap the loop merges
        the per-queue streams with a heap of at most one head entry per
        link, and drains consecutive same-queue deliveries with no heap
        traffic at all.  Handler events stay on the (now tiny) EventQueue
        heap, or on its ready queue when due now.  The interleaving realised
        here *is* the canonical order: ``(time, depart, link)`` among
        deliveries, handler events first on timestamp ties, in ``(time,
        sequence)`` order whichever of the two holds them (see
        :mod:`repro.network.events`); the event-per-transmission oracle in
        ``tests/packet_oracle.py``, which posts everything on the heap,
        checks it differentially.

        When ``until`` is given the loop stops *before* executing any event
        scheduled after it (events at exactly ``until`` still run), leaving
        the clock at the last executed event — the sharded engine advances
        each shard to its lookahead window edge this way and resumes the
        loop after the barrier.
        """
        from heapq import heappop, heappush

        events = self.events
        heap = events._heap
        ready = events._ready
        streams = self._stream_heads
        queues = self.queues
        free_append = self._packet_free.append
        handle_nack = self._handle_nack
        handle_pull = self._handle_pull
        handle_drop = self._handle_data_drop
        request_pull = self._request_pull
        message_arrived = self._message_arrived
        try_send = self._try_send
        ack_size = self.config.ack_size
        faults_enabled = self._faults_enabled
        bounded = until is not None
        executed = 0
        delivered = 0
        while True:
            if ready and not (heap and heap[0] < ready[0]):
                # due now, and no older heap entry is (that one is popped
                # below); every same-instant delivery runs after both
                entry = ready.popleft()
                entry[3](entry[0], entry[4])
                executed += 1
                continue
            st = streams[0][0] if streams else None
            if heap and (st is None or heap[0][0] <= st):
                if bounded and heap[0][0] > until:
                    break
                # handler events run first on timestamp ties (klass 0 < 1)
                entry = heappop(heap)
                t = entry[0]
                events._now = t
                entry[3](t, entry[4])
                executed += 1
                continue
            if st is None:
                break
            if bounded and st > until:
                break
            t, depart, link = heappop(streams)
            q = queues[link]
            lat = q.latency
            pkt = q.head
            while True:
                nxt = q.head = pkt.nxt
                if q.undrained is pkt:
                    # delivered before any drain reached it: it leaves the
                    # chain, so the ledger retires it here
                    q.undrained = nxt
                    if lat:
                        q.queued_bytes -= pkt.size
                        q.head_depart = _NEVER if nxt is None else nxt.depart
                    else:
                        # it departs at this very instant and occupies the
                        # buffer until strictly after it: hold its bytes
                        # (a previous tie departed earlier, so it goes)
                        q.queued_bytes -= q.tie_bytes
                        q.tie_bytes = pkt.size
                        q.head_depart = t
                events._now = t
                executed += 1
                hop = pkt.hop + 1
                pkt.hop = hop
                if hop < pkt.hops:
                    # fault path: a DATA packet whose remaining hops cross a
                    # failed link is forced onto a surviving candidate (or
                    # dropped when stranded); control packets are immune to
                    # faults, like they are to queue drops
                    if (
                        faults_enabled
                        and pkt.kind == DATA
                        and self._masked(pkt.route, hop)
                        and not self._fault_forward(pkt, hop, t)
                    ):
                        pkt.flow = None
                        free_append(pkt)
                    elif not queues[pkt.route[hop]].enqueue(pkt, t):
                        handle_drop(pkt, t)
                        pkt.flow = None
                        free_append(pkt)
                elif pkt.kind == DATA:
                    # the packet turns around as the ACK it triggers (the
                    # NACK when it was trimmed): same flow, seq, ECN echo
                    # and send time, onto the ACK route from its first hop
                    flow = pkt.flow
                    route = flow.ack_route
                    pkt.route = route
                    pkt.hop = 0
                    pkt.hops = len(route)
                    if pkt.trimmed:
                        # NDP: the payload was cut; NACK the sequence and
                        # pull a retransmit
                        pkt.kind = NACK
                        pkt.size = ack_size
                        flow.ack_q0.enqueue(pkt, t)
                        request_pull(flow, t)
                    else:
                        delivered += 1
                        seq = pkt.seq
                        received = flow.received
                        new = seq not in received
                        if new:
                            received.add(seq)
                        pkt.kind = ACK
                        pkt.size = ack_size
                        flow.ack_q0.enqueue(pkt, t)
                        if len(received) != flow.num_packets:
                            if flow.trimmable:
                                request_pull(flow, t)
                        elif new and not flow.message_delivered:
                            message_arrived(flow, t)
                else:
                    kind = pkt.kind
                    if kind == ACK:
                        flow = pkt.flow
                        seq = pkt.seq
                        acked = flow.acked
                        if seq not in acked:
                            acked.add(seq)
                            freed = (
                                flow.mtu
                                if seq != flow.num_packets - 1
                                else flow.last_packet_size
                            )
                            inflight = flow.inflight_bytes - freed
                            if inflight < 0:
                                inflight = 0
                            flow.inflight_bytes = inflight
                            rtt = t - pkt.sent_time
                            window = flow.cc.on_ack(freed, pkt.ecn, rtt if rtt > 0 else 1)
                            if not flow.trimmable:  # NDP sends on pulls only
                                try_send(flow, t, window)
                    elif kind == NACK:
                        handle_nack(pkt, t)
                    else:
                        handle_pull(pkt, t)
                    pkt.flow = None
                    free_append(pkt)
                # the handlers may have linked packets onto this very chain
                pkt = q.head
                if pkt is None:
                    q.live = False
                    break
                nd = pkt.depart
                nt = nd + lat
                if bounded and nt > until:
                    heappush(streams, (nt, nd, link))
                    break
                # keep draining this stream only while its next delivery
                # precedes every other pending event (handlers win ties,
                # and a ready entry is due now)
                if ready or (heap and heap[0][0] <= nt):
                    heappush(streams, (nt, nd, link))
                    break
                if streams and (nt, nd, link) >= streams[0]:
                    heappush(streams, (nt, nd, link))
                    break
                t = nt
        self._n_delivered += delivered
        events.executed += executed
        return events._now

    # ----------------------------------------------------------------- results
    def collect_links(self) -> LinkStats:
        links = super().collect_links()
        queues = self.queues
        n = len(queues)
        for column in ("busy_ns", "max_queued_bytes", "drops", "trims", "ecn_marks"):
            setattr(links, column, np.fromiter((getattr(q, column) for q in queues), np.int64, n))
        return links

    def collect_stats(self, links: LinkStats) -> NetworkStats:
        self._require_setup()
        # fold the hot plain-int counters back in (assignment, so repeated
        # collect_stats calls stay idempotent)
        self.stats.packets_sent = self._n_sent
        self.stats.packets_delivered = self._n_delivered
        return super().collect_stats(links)
