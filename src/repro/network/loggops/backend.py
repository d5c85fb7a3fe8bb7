"""Message-level network backend based on the LogGOPS model.

This backend reproduces the LogGOPSim substrate the paper builds on: every
message is charged analytically with the LogGOPS parameters

* ``o`` — CPU overhead at sender and receiver (plus ``O`` per byte),
* ``g`` — NIC gap between consecutive messages at an endpoint,
* ``G`` — gap per byte (inverse bandwidth),
* ``L`` — wire latency,
* ``S`` — eager/rendezvous threshold.

Endpoint NICs are modelled as serial resources, so incast at a receiver
serialises at rate ``1/G``; the network core itself is contention-free,
which is exactly the approximation whose limits the paper's §6.2 explores
(the packet backend removes it).

Timing of an eager message (``size <= S``)::

    cpu_start  = max(ready, cpu_free[rank, stream])
    cpu_end    = cpu_start + o + size*O        (send op completes locally here)
    inj_start  = max(cpu_end, send_nic_free[rank])
    send_nic_free[rank] = inj_start + g + size*G
    recv_start = max(inj_start + L, recv_nic_free[dst])
    arrival    = recv_start + size*G
    recv_nic_free[dst] = arrival + g

The matching receive completes after an additional ``o`` charged on its own
compute stream, no earlier than both its posting time and the arrival.

Rendezvous messages (``size > S``) additionally wait for the matching
receive to be posted and pay one extra ``L`` for the handshake before the
transfer starts; the send op completes at message arrival rather than
locally.

Hot path
--------
An eager message is five events — post the send, the send completes, the
message arrives, post the receive, the receive completes — of which only
three go through the heap: the scheduler issues at the current time, so the
shared ``issue_send`` / ``issue_recv`` append ``_start_send`` / ``_post_recv``
to the event queue's same-instant ready queue (see
:mod:`repro.network.events`), which runs them in the order the heap would
have, and each completion event calls the scheduler's handler directly.  The
four handlers are flat: each reserves its CPU stream, computes the cost (the
integer ``o`` when ``O == 0``), evaluates the flat-``L`` recurrence above,
matches on the shared matcher's FIFOs, counts the delivery and pushes its
heap tuples itself; a posted receive is a plain tuple and an unexpected
arrival just its arrival time.  Rendezvous, routed latency, the fault derate
``gamma`` and per-job attribution stay behind their own branches.
``tests/loggops_oracle.py`` keeps the five-heap-event formulation as the
oracle this engine is held to (see ``docs/performance.md``).

Topology-aware latency
----------------------
When :meth:`SimulationConfig.loggops_topology_enabled` is true (the default
for the path-diverse ``torus`` and ``slimfly`` topologies), the flat ``L``
is replaced per message by the propagation latency of the route the
configured :class:`~repro.network.routing.RoutingStrategy` selects — a
hop-count/diameter model — and the rendezvous handshake likewise pays the
minimal-path latency.  The backend feeds the strategy cumulative bytes
routed over each link as its load signal, so adaptive routing steers around
links that earlier messages loaded even though this backend has no queues.
"""
from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.network.backend import CompletionCallback, LinkStats, NetworkBackend
from repro.network.config import SimulationConfig
from repro.network.faults import LINK_DOWN, SWITCH_DRAIN, NetworkPartitionError


class _PendingRendezvous:
    """A rendezvous send waiting for its matching receive to be posted."""

    __slots__ = ("op_id", "rank", "dst", "tag", "stream", "size", "sender_ready", "post_time")

    def __init__(
        self, op_id: int, rank: int, dst: int, tag: int, stream: int, size: int, sender_ready: int, post_time: int
    ) -> None:
        self.op_id = op_id
        self.rank = rank
        self.dst = dst
        self.tag = tag
        self.stream = stream
        self.size = size
        self.sender_ready = sender_ready
        self.post_time = post_time


class LogGOPSBackend(NetworkBackend):
    """LogGOPS message-level simulator implementing the unified backend API."""

    name = "lgs"

    # ------------------------------------------------------------------ setup
    def setup(self, num_ranks: int, config: SimulationConfig) -> None:
        super().setup(num_ranks, config)
        self.params = config.loggops
        self._send_nic_free: List[int] = [0] * num_ranks
        self._recv_nic_free: List[int] = [0] * num_ranks
        # CPU cost fast path: with O == 0 the per-message cost is just o
        self._o_int = int(round(self.params.o))
        # the eager path matches on the shared matcher's FIFOs in place
        self._pending_recvs = self.matcher._pending_recvs
        self._pending_arrivals = self.matcher._pending_arrivals
        # topology-aware wire latency (hop-count model; see module docstring)
        # routes every message; _link_bytes — cumulative bytes routed per
        # link — is the load signal handed to the routing strategy
        self._routed = config.loggops_topology_enabled()
        self._link_bytes: Optional[List[int]] = None
        # faults degrade this backend through a capacity factor gamma — the
        # surviving fraction of fabric bandwidth over the switch-to-switch
        # links (or all links on switchless topologies) — which inflates the
        # per-byte serialisation term of every transfer by 1/gamma; in
        # topology-aware mode the same failed-link state also filters
        # per-message route selection.  A faulted flat-L run builds the
        # fabric too, purely to resolve link references and account
        # capacity; it never affects latency.
        self._gamma = 1.0
        self._gamma_gen = 0
        if self._routed or self._faults_enabled:
            self._bring_up_fabric()
        if self._routed:
            self._link_bytes = [0] * len(self.topology.links)
            self._link_ns = self.topology.link_delays()
        if self._faults_enabled:
            self._recompute_gamma()
        # channel -> list of rendezvous sends awaiting a receive (FIFO)
        self._pending_rndv: Dict[Tuple[int, int, int], List[_PendingRendezvous]] = {}
        # channel -> list of posted receives available for rendezvous matching
        self._rndv_recv_posts: Dict[Tuple[int, int, int], List[tuple]] = {}

    def _fabric_built(self) -> None:
        # healthy capacity is captured before degradations are applied, so
        # a derated link counts as lost capacity
        topo = self.topology
        self._fault_domain = [
            link.link_id
            for link in topo.links
            if not (topo.is_host(link.src) or topo.is_host(link.dst))
        ] or [link.link_id for link in topo.links]
        self._domain_total_bw = sum(
            topo.links[i].bandwidth for i in self._fault_domain
        )

    # ------------------------------------------------------------------ faults
    def _recompute_gamma(self) -> None:
        """Refresh the surviving-capacity factor after a fault-state change."""
        topo = self.topology
        failed = topo.failed_links
        alive_bw = sum(
            topo.links[i].bandwidth for i in self._fault_domain if i not in failed
        )
        gamma = alive_bw / self._domain_total_bw if self._domain_total_bw else 0.0
        if gamma <= 0.0:
            raise NetworkPartitionError(
                "fault schedule removed all fabric capacity: every "
                f"link of the capacity domain ({len(self._fault_domain)} links) "
                "is down"
            )
        self._gamma = gamma

    def _apply_fault(self, time: int, payload: Tuple[str, List[int]]) -> None:
        """Apply one timed fault event: flip link state, refresh gamma.

        In topology-aware mode the failed-link state is shared with the
        routing strategy, so subsequent messages also route around the
        failure (or raise the partition error when no route survives).

        Under "oracle" gamma steps instantaneously.  Under a convergent
        control plane ("dv"/"ls") the analytic counterpart of stale-table
        forwarding is a capacity-derate *ramp*: gamma starts below its
        post-convergence value at the event and steps toward the true value
        as each learn-time group of switches converges.
        """
        kind = payload[0]
        gamma_old = self._gamma
        wave = super()._apply_fault(time, payload)
        self._recompute_gamma()
        if wave is None:
            return
        # convergent control plane: ramp gamma to its new truth across the
        # event's learn-time groups instead of stepping instantaneously
        gamma_new = self._gamma
        if kind in (LINK_DOWN, SWITCH_DRAIN):
            # during convergence, the stale share of traffic is injected
            # toward the failed region and wasted, so effective capacity
            # dips *below* the degraded steady state before recovering
            start = gamma_new * (gamma_new / gamma_old)
        else:
            # restored capacity is invisible to stale switches
            start = gamma_old
        self._gamma = start
        self._gamma_gen += 1
        gen = self._gamma_gen
        if not wave:
            self._gamma = gamma_new
            return
        total = sum(len(group) for _, group in wave)
        cum = 0
        for t, group in wave:
            cum += len(group)
            # the final step lands exactly on gamma_new (no float residue)
            target = (
                gamma_new if cum == total else start + (gamma_new - start) * cum / total
            )
            self.events.schedule(t, self._cp_gamma_step, (target, gen))

    def _cp_gamma_step(self, time: int, payload: Tuple[float, int]) -> None:
        """One learn-time group converges: gamma steps toward its new truth.

        No switch view is updated: this model never routes by a view.  Steps
        carry the generation of the fault event that scheduled them; a
        later event supersedes the ramp (new generation), so stale steps are
        dropped instead of clobbering the newer ramp.
        """
        target, gen = payload
        if gen == self._gamma_gen:
            self._gamma = target

    # --------------------------------------------------------------- internals
    # A posted receive is the tuple (rank, stream, post time, CPU cost, op
    # id); an unexpected eager message is its arrival time.

    def _start_send(self, time: int, payload: Any) -> None:
        rank, dst, size, tag, stream, op_id = payload
        p = self.params
        cost = self._o_int if p.O == 0.0 else int(round(p.o + size * p.O))
        # inlined HostCompute.reserve
        free = self.host._free_at
        key = (rank, stream)
        cpu_start = free.get(key, 0)
        if cpu_start < time:
            cpu_start = time
        cpu_end = cpu_start + cost
        free[key] = cpu_end

        if size > p.S and p.S != 0:
            # Rendezvous: wait for the matching receive before transferring.
            channel = (rank, dst, tag)
            waiting = self._rndv_recv_posts.get(channel)
            if waiting:
                recv = waiting.pop(0)
                if not waiting:
                    del self._rndv_recv_posts[channel]
                self._start_rendezvous_transfer(
                    op_id, rank, dst, size, tag, stream, cpu_end, cpu_start, recv
                )
            else:
                self._pending_rndv.setdefault(channel, []).append(
                    _PendingRendezvous(op_id, rank, dst, tag, stream, size, cpu_end, cpu_start)
                )
            return

        # Eager protocol: transfer proceeds regardless of the receive
        # (inlined _transfer; the send op completes locally at cpu_end).
        if self._gamma != 1.0:
            wire_bytes_ns = int(round(size * p.G / self._gamma))
        else:
            wire_bytes_ns = int(round(size * p.G))
        send_free = self._send_nic_free
        inj_start = send_free[rank]
        if inj_start < cpu_end:
            inj_start = cpu_end
        send_free[rank] = inj_start + p.g + wire_bytes_ns
        if self._routed:
            recv_start = inj_start + self._wire_latency(rank, dst, size, op_id)
        else:
            recv_start = inj_start + p.L
        recv_free = self._recv_nic_free
        if recv_start < recv_free[dst]:
            recv_start = recv_free[dst]
        arrival = recv_start + wire_bytes_ns
        recv_free[dst] = arrival + p.g
        events = self.events
        heap = events._heap
        seq = events._seq
        heappush(heap, (cpu_end, 0, seq, self.on_complete, (rank, op_id)))
        heappush(
            heap, (arrival, 0, seq + 1, self._on_arrival, (rank, dst, size, tag, cpu_start, op_id))
        )
        events._seq = seq + 2

    def _wire_latency(self, src: int, dst: int, size: int, op_id: int) -> int:
        """The routed path's propagation delay for one message sent by op
        ``op_id`` (topology-aware latency only; the flat ``L`` needs no call)."""
        loads = self._link_bytes
        route = self.routing.select_route(src, dst, size, loads)
        for link in route:
            loads[link] += size
        if self.op_group is not None:
            self._charge_group_links(op_id, route, size)
        return sum(map(self._link_ns.__getitem__, route))

    def _transfer(self, src: int, dst: int, size: int, sender_ready: int, op_id: int) -> int:
        """Charge NIC resources for one rendezvous message (sent by op
        ``op_id``); return its arrival time.

        Under an active fault schedule the per-byte serialisation is
        inflated by the degraded-capacity factor (``G / gamma``); with the
        fabric fully up (``gamma == 1``) the arithmetic is exactly the
        healthy expression.  ``_start_send`` inlines the same recurrence for
        eager messages.
        """
        p = self.params
        if self._gamma != 1.0:
            wire_bytes_ns = int(round(size * p.G / self._gamma))
        else:
            wire_bytes_ns = int(round(size * p.G))
        inj_start = max(sender_ready, self._send_nic_free[src])
        self._send_nic_free[src] = inj_start + p.g + wire_bytes_ns
        latency = self._wire_latency(src, dst, size, op_id) if self._routed else p.L
        recv_start = max(inj_start + latency, self._recv_nic_free[dst])
        arrival = recv_start + wire_bytes_ns
        self._recv_nic_free[dst] = arrival + p.g
        return arrival

    def _on_arrival(self, time: int, payload: Tuple[int, int, int, int, int, int]) -> None:
        """An eager message fully arrived; record it and run matching."""
        src, dst, size, tag, post_time, op_id = payload
        # inlined NetworkBackend._message_delivered
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += size
        if self.op_group is not None:
            self._count_group_message(op_id, size)
        if self._record is not None:
            self._record((src, dst, size, tag, post_time, time))
        # inlined MessageMatcher.post_arrival
        channel = (src, dst, tag)
        recvs = self._pending_recvs.get(channel)
        if recvs:
            recv = recvs.popleft()
            if not recvs:
                del self._pending_recvs[channel]
            self._complete_recv(recv, time)
            return
        arrivals = self._pending_arrivals.get(channel)
        if arrivals is None:
            self._pending_arrivals[channel] = deque((time,))
        else:
            arrivals.append(time)

    def _post_recv(self, time: int, payload: Any) -> None:
        rank, src, size, tag, stream, op_id = payload
        p = self.params
        cost = self._o_int if p.O == 0.0 else int(round(p.o + size * p.O))
        recv = (rank, stream, time, cost, op_id)

        if size > p.S and p.S != 0:
            # Rendezvous path: the receive may unblock a waiting send.
            channel = (src, rank, tag)
            pending = self._pending_rndv.get(channel)
            if pending:
                send = pending.pop(0)
                if not pending:
                    del self._pending_rndv[channel]
                self._start_rendezvous_transfer(
                    send.op_id, send.rank, send.dst, send.size, send.tag, send.stream,
                    send.sender_ready, send.post_time, recv,
                )
                return
            self._rndv_recv_posts.setdefault(channel, []).append(recv)
            return

        # inlined MessageMatcher.post_recv
        channel = (src, rank, tag)
        arrivals = self._pending_arrivals.get(channel)
        if arrivals:
            arrival_time = arrivals.popleft()
            if not arrivals:
                del self._pending_arrivals[channel]
            self._complete_recv(recv, arrival_time)
            return
        recvs = self._pending_recvs.get(channel)
        if recvs is None:
            self._pending_recvs[channel] = deque((recv,))
        else:
            recvs.append(recv)

    def _start_rendezvous_transfer(
        self,
        send_op_id: int,
        src: int,
        dst: int,
        size: int,
        tag: int,
        send_stream: int,
        sender_ready: int,
        sender_post_time: int,
        recv: Tuple[int, int, int, int, int],
    ) -> None:
        """Run the rendezvous handshake and transfer once both sides are ready."""
        # the handshake control message pays the topology's minimal path
        # latency in topology-aware mode, the flat L otherwise (consistent
        # with the data transfer's _wire_latency)
        if self._routed:
            # alive_table is the full table while the fabric is healthy
            first = self.topology.alive_table(dst, src)[0]
            handshake_latency = sum(map(self._link_ns.__getitem__, first))
        else:
            handshake_latency = self.params.L
        handshake_done = max(sender_ready, recv[2] + handshake_latency)
        arrival = self._transfer(src, dst, size, handshake_done, send_op_id)
        self._message_delivered(src, dst, size, tag, sender_post_time, arrival, send_op_id)
        # The send op completes when the transfer completes (sender blocks).
        self.events.schedule(arrival, self.on_complete, (src, send_op_id))
        self._complete_recv(recv, arrival)

    def _complete_recv(self, recv: Tuple[int, int, int, int, int], arrival_time: int) -> None:
        """Charge the receiver-side overhead and report the recv op complete."""
        rank, stream, post_time, cost, op_id = recv
        # inlined HostCompute.reserve, from the later of arrival and post
        free = self.host._free_at
        key = (rank, stream)
        start = free.get(key, 0)
        if start < arrival_time:
            start = arrival_time
        if start < post_time:
            start = post_time
        end = start + cost
        free[key] = end
        events = self.events
        heappush(events._heap, (end, 0, events._seq, self.on_complete, (rank, op_id)))
        events._seq += 1

    # -------------------------------------------------------------------- run
    def run(self, on_complete: CompletionCallback) -> int:
        self._require_setup()
        self.on_complete = on_complete
        return self.events.run()

    # ---------------------------------------------------------------- results
    def collect_links(self) -> LinkStats:
        links = super().collect_links()
        if self._routed:
            links.routed_bytes = np.array(self._link_bytes, dtype=np.int64)
        return links

    def unmatched_state(self) -> Dict[str, int]:
        """Diagnostics about unmatched communication at the end of a run.

        A correct schedule drains everything; non-zero counts indicate a
        deadlocked or mismatched GOAL program.
        """
        return {
            **super().unmatched_state(),
            "pending_rendezvous_sends": sum(len(v) for v in self._pending_rndv.values()),
            "pending_rendezvous_recvs": sum(len(v) for v in self._rndv_recv_posts.values()),
        }
