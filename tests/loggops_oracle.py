"""Five-heap-event oracle for the LogGOPS backend (test-only).

The shipped engine posts every send, receive and zero-cost calc that is
due now on the event queue's same-instant ready queue and runs each message
through four flattened handlers.  This file keeps the *textbook* formulation
of the same model — the message path as it was written before those changes
— as the oracle the differential suite compares the engine against
(``tests/test_loggops_oracle.py``): ``issue_send`` / ``issue_recv`` /
``issue_calc`` push a heap event each, ``_start_send`` reserves the sender's CPU through
:meth:`HostCompute.reserve` and charges the NICs through ``_transfer``, and
the receive side matches through :class:`MessageMatcher` with one
bookkeeping object per posted receive and per unexpected arrival.  An eager
message is therefore five heap events (post send, send completes, arrival,
post receive, receive completes), every one of them on the plain heap.

Nothing in ``src/`` knows about it: :class:`FiveEventLogGOPSBackend` is a
:class:`~repro.network.loggops.LogGOPSBackend` that overrides the message
path, routed latency included, and issuing, and inherits everything else
(fabric bring-up, faults and the ``gamma`` ramps, and stats).  Its events
complete an op through the scheduler's handler, as the engine's do.  Pass an instance as
``simulate(..., backend=FiveEventLogGOPSBackend())``.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.network.loggops import LogGOPSBackend


class _PendingRecv:
    """Bookkeeping for a posted receive waiting for its message."""

    __slots__ = ("op_id", "rank", "stream", "post_time", "size")

    def __init__(self, op_id, rank, stream, post_time, size):
        self.op_id = op_id
        self.rank = rank
        self.stream = stream
        self.post_time = post_time
        self.size = size


class _Arrival:
    """Bookkeeping for a message that arrived before its receive was posted."""

    __slots__ = ("arrival_time", "size")

    def __init__(self, arrival_time, size):
        self.arrival_time = arrival_time
        self.size = size


class _PendingRendezvous:
    """A rendezvous send waiting for its matching receive to be posted."""

    __slots__ = ("op_id", "rank", "dst", "tag", "stream", "size", "sender_ready", "post_time")

    def __init__(self, op_id, rank, dst, tag, stream, size, sender_ready, post_time):
        self.op_id = op_id
        self.rank = rank
        self.dst = dst
        self.tag = tag
        self.stream = stream
        self.size = size
        self.sender_ready = sender_ready
        self.post_time = post_time


class FiveEventLogGOPSBackend(LogGOPSBackend):
    """The LogGOPS message path with one heap event per step."""

    def issue_calc(self, rank, stream, duration_ns, op_id, ready_time):
        _, end = self.host.reserve(rank, stream, ready_time, duration_ns)
        self.events.schedule(end, self.on_complete, (rank, op_id))

    def issue_send(self, rank, dst, size, tag, stream, op_id, ready_time):
        events = self.events
        heapq.heappush(
            events._heap,
            (ready_time, 0, events._seq, self._start_send, (rank, dst, size, tag, stream, op_id)),
        )
        events._seq += 1

    def issue_recv(self, rank, src, size, tag, stream, op_id, ready_time):
        events = self.events
        heapq.heappush(
            events._heap,
            (ready_time, 0, events._seq, self._post_recv, (rank, src, size, tag, stream, op_id)),
        )
        events._seq += 1

    def _cpu_cost(self, size):
        p = self.params
        if p.O == 0.0:
            return int(round(p.o))
        return int(round(p.o + size * p.O))

    def _start_send(self, time, payload):
        rank, dst, size, tag, stream, op_id = payload
        p = self.params
        cpu_start, cpu_end = self.host.reserve(rank, stream, time, self._cpu_cost(size))

        if size <= p.S or p.S == 0:
            # Eager protocol: transfer proceeds regardless of the receive.
            arrival = self._transfer(rank, dst, size, cpu_end, op_id)
            self.events.schedule(cpu_end, self.on_complete, (rank, op_id))
            self.events.schedule(arrival, self._on_arrival, (rank, dst, size, tag, cpu_start, op_id))
        else:
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

    def _wire_latency(self, src, dst, size, op_id):
        if not self._routed:
            return self.params.L
        loads = self._link_bytes
        route = self.routing.select_route(src, dst, size, loads)
        for link in route:
            loads[link] += size
        group = -1 if self.op_group is None else self.op_group[op_id]
        if group >= 0:
            arr = self._group_link_bytes.get(group)
            if arr is None:
                arr = self._group_link_bytes[group] = np.zeros(len(self.topology.links), dtype=np.int64)
            for link in route:
                arr[link] += size
        return sum(map(self._link_ns.__getitem__, route))

    def _transfer(self, src, dst, size, sender_ready, op_id):
        p = self.params
        if self._gamma != 1.0:
            wire_bytes_ns = int(round(size * p.G / self._gamma))
        else:
            wire_bytes_ns = int(round(size * p.G))
        inj_start = max(sender_ready, self._send_nic_free[src])
        self._send_nic_free[src] = inj_start + p.g + wire_bytes_ns
        recv_start = max(inj_start + self._wire_latency(src, dst, size, op_id), self._recv_nic_free[dst])
        arrival = recv_start + wire_bytes_ns
        self._recv_nic_free[dst] = arrival + p.g
        return arrival

    def _on_arrival(self, time, payload):
        src, dst, size, tag, post_time, op_id = payload
        self._message_delivered(src, dst, size, tag, post_time, time, op_id)
        matched = self.matcher.post_arrival(src, dst, tag, _Arrival(time, size))
        if matched is not None:
            self._complete_recv(matched, time)

    def _post_recv(self, time, payload):
        rank, src, size, tag, stream, op_id = payload
        p = self.params
        recv = _PendingRecv(op_id, rank, stream, time, size)

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

        matched = self.matcher.post_recv(src, rank, tag, recv)
        if matched is not None:
            self._complete_recv(recv, matched.arrival_time)

    def _start_rendezvous_transfer(
        self, send_op_id, src, dst, size, tag, send_stream, sender_ready, sender_post_time, recv
    ):
        if self._routed:
            first = self.topology.alive_table(dst, src)[0]
            handshake_latency = sum(map(self._link_ns.__getitem__, first))
        else:
            handshake_latency = self.params.L
        handshake_done = max(sender_ready, recv.post_time + handshake_latency)
        arrival = self._transfer(src, dst, size, handshake_done, send_op_id)
        self._message_delivered(src, dst, size, tag, sender_post_time, arrival, send_op_id)
        # The send op completes when the transfer completes (sender blocks).
        self.events.schedule(arrival, self.on_complete, (src, send_op_id))
        self._complete_recv(recv, arrival)

    def _complete_recv(self, recv, arrival_time):
        earliest = max(arrival_time, recv.post_time)
        _, end = self.host.reserve(recv.rank, recv.stream, earliest, self._cpu_cost(recv.size))
        self.events.schedule(end, self.on_complete, (recv.rank, recv.op_id))
