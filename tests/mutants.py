"""Recorded mutants: deliberate breaks, each with the check that must catch it.

A comparison that has never failed proves nothing, so every exactness claim
the suite makes is paired with a broken variant of the code it guards.  A
:class:`Mutant` applies its break through a ``pytest.MonkeyPatch`` (never to
a file) and names its check: a zero-argument call that raises ``raises``
under the break and passes without it.  For a registry check that is
:class:`differential.Mismatch`, the engine-against-reference comparison
itself, not a regime ``expect`` or the packet ledger.  ``tests/test_differential.py::test_mutant_is_caught`` runs each
one; every mutant a :class:`differential.Pair` names, and every check in
that file's ``GUARDED``, needs it here
(``test_every_named_mutant_is_registered``).

To add one: write the break as a ``patch`` function, point ``caught_by`` at
the registry input (``differential.check(name)``) or test that catches it
(a test outside the registry also sets ``raises``), and name it in the
pair's ``mutants`` field.
"""
from __future__ import annotations

import dataclasses
import heapq
import inspect
import re
import textwrap
from typing import Callable, NamedTuple, Type

import numpy as np
import pytest

import differential
import test_collective_emission as emission
import test_grouping_oracle as grouping_oracle
import test_workers
from repro import sweep
from repro.collectives import CollectiveContext
from repro.network.events import EventQueue
from repro.network.packet import backend, linkqueue, sharded
from repro.network.packet.packet import DATA
from repro.schedgen import grouping
from repro.workers import WorkerError


class Mutant(NamedTuple):
    patch: Callable[[pytest.MonkeyPatch], None]
    caught_by: Callable[[], None]
    raises: Type[BaseException] = differential.Mismatch


def _retire_at_departure(patch):
    """Break the ledger's tie rule (``<=`` for ``<``): a packet leaves the
    buffer *at* its departure instant instead of strictly after it."""
    enqueue = linkqueue.BurstLinkQueue.enqueue

    def early_retire(self, packet, now):
        if self.head_depart <= now:
            self.queued_bytes -= self.tie_bytes
            self.tie_bytes = 0
            p = self.undrained
            while p is not None and p.depart <= now:
                self.queued_bytes -= p.size
                p = p.nxt
            self.undrained = p
            self.head_depart = linkqueue._NEVER if p is None else p.depart
        return enqueue(self, packet, now)

    patch.setattr(linkqueue.BurstLinkQueue, "enqueue", early_retire)


def _tie_bytes_stop_at_delivery(patch):
    """A packet delivered at its own departure instant (a 0 ns link) stops
    occupying the buffer at delivery instead of strictly after it:
    ``_run_merged`` recompiled to retire it like a packet that departed
    earlier (``if True:`` for ``if lat:``)."""
    source = textwrap.dedent(inspect.getsource(backend.PacketBackend._run_merged))
    source, n = re.subn(r"^( +)if lat:$", r"\1if True:", source, flags=re.M)
    assert n == 1, "the delivery-time retirement moved"
    namespace = {}
    exec(source, vars(backend), namespace)
    patch.setattr(backend.PacketBackend, "_run_merged", namespace["_run_merged"])


def _every_row(*names):
    """Run the registry checks ``names``: pass when every one passes, raise
    a :class:`differential.Mismatch` when every one raises it, and fail
    (a plain ``AssertionError``) when only some do."""

    def run():
        caught = []
        for name in names:
            try:
                differential.check(name)
            except differential.Mismatch as exc:
                caught.append(exc)
        if caught:
            assert len(caught) == len(names), f"{len(caught)} of {len(names)} rows caught the break"
            raise caught[-1]

    return run


def _turnaround_drops_ecn_echo(patch):
    """The arriving DATA packet turns into an ACK without the ECN mark it
    collected: ``_run_merged`` recompiled with ``pkt.ecn = False`` after the
    turnaround's ``pkt.kind = ACK``."""
    source = textwrap.dedent(inspect.getsource(backend.PacketBackend._run_merged))
    source, n = re.subn(r"^( +)pkt\.kind = ACK$", r"\g<0>\n\1pkt.ecn = False", source, flags=re.M)
    assert n == 1, "the turnaround's ACK rewrite moved"
    namespace = {}
    exec(source, vars(backend), namespace)
    patch.setattr(backend.PacketBackend, "_run_merged", namespace["_run_merged"])


def _ready_jumps_heap(patch):
    """The packet loop runs a ready entry ahead of an older same-instant heap
    entry: ``_run_merged`` recompiled with ``if ready:`` for the sequence
    test ``if ready and not (heap and heap[0] < ready[0]):``."""
    source = textwrap.dedent(inspect.getsource(backend.PacketBackend._run_merged))
    source, n = re.subn(
        r"^( +)if ready and not \(heap and heap\[0\] < ready\[0\]\):$", r"\1if ready:", source, flags=re.M
    )
    assert n == 1, "the ready queue's sequence test moved"
    namespace = {}
    exec(source, vars(backend), namespace)
    patch.setattr(backend.PacketBackend, "_run_merged", namespace["_run_merged"])


def _load_view_skips_drain(patch):
    """The occupancy view reads a queue's ledger without draining it, so a
    load-reading pick counts bytes that have already left the link."""
    patch.setattr(backend._Occupancy, "__getitem__", lambda self, link_id: self.queues[link_id].queued_bytes)


def _boundary_route_from_replica(patch):
    """A packet crossing shards takes its route from the receiving shard's
    copy of the flow (``flow.route`` for DATA, ``flow.ack_route`` for the
    rest) instead of the route it was shipped with: ``_apply_inbox``
    recompiled with the route looked up after the flow is resolved."""
    source = textwrap.dedent(inspect.getsource(sharded.ShardPacketBackend._apply_inbox))
    source, n = re.subn(
        r"^( +)flow = self\._resolve_flow\(key, spec\)$",
        r"\g<0>\n\1route = flow.route if pkind == DATA else flow.ack_route",
        source,
        flags=re.M,
    )
    assert n == 1, "the inbox's flow lookup moved"
    namespace = {}
    exec(source, {**vars(sharded), "DATA": DATA}, namespace)
    patch.setattr(sharded.ShardPacketBackend, "_apply_inbox", namespace["_apply_inbox"])


def _merge_keeps_shard0_links(patch):
    """``_merge_results`` that keeps shard 0's per-link record instead of the
    shards' elementwise sum."""
    merge = sharded._merge_results

    def shard0_links(collected, schedule, wall):
        return dataclasses.replace(merge(collected, schedule, wall), links=collected[0][0].links)

    patch.setattr(sharded, "_merge_results", shard0_links)


def _seq_blind_run(self):
    """``EventQueue.run`` that runs every ready entry before any heap entry."""
    heap, ready = self._heap, self._ready
    while ready or heap:
        if ready:
            entry = ready.popleft()
        else:
            entry = heapq.heappop(heap)
            self._now = entry[0]
        entry[-2](entry[0], entry[-1])
        self.executed += 1
    return self._now


def _unstable_merge(patch):
    """``np.lexsort`` that breaks ties backwards: a sort that is not stable."""
    lexsort = np.lexsort
    patch.setattr(np, "lexsort", lambda keys: lexsort((-np.arange(len(keys[0])),) + tuple(keys)))


def _recv_before_send(patch):
    """``CollectiveContext.exchange`` emitting each round's receive before its send."""

    def exchange(self, last, tag, pairs, reduce=False):
        rank, ranks = self.builder.rank, self.ranks
        for r, dst, src, send_bytes, recv_bytes in pairs:
            rb = rank(ranks[r])
            reqs = () if last[r] is None else (last[r],)
            recv = rb.recv(max(1, recv_bytes), ranks[src], tag, self.cpu, reqs)
            send = rb.send(max(1, send_bytes), ranks[dst], tag, self.cpu, reqs)
            tail = rb.join((send, recv), self.cpu)
            if reduce and self.reduce_ns_per_byte:
                tail = rb.calc(self.reduce_cost(recv_bytes), self.cpu, (tail,))
            last[r] = tail

    patch.setattr(CollectiveContext, "exchange", exchange)


def _lifo_pairing(patch):
    """Stage-4 grouping pairing each channel's sends and receives last-in first-out."""
    pairs = grouping._intra_pairs

    def lifo(kind, peer, tag, me, intra):
        last = len(kind) - 1
        send, recv = pairs(kind[::-1], peer[::-1], tag[::-1], me[::-1], intra[::-1])
        return last - send, last - recv

    patch.setattr(grouping, "_intra_pairs", lifo)


def _grouping_grid():
    for seed in range(4):
        for layout in sorted(grouping_oracle.LAYOUTS):
            grouping_oracle.test_grouping_matches_oracle(seed, layout, "nvlink")


def _serial_rerun(patch):
    """``_execute_cells`` that reruns the grid in this process when a worker dies."""
    execute = sweep._execute_cells

    def rerun_on_worker_error(fn, cells, parallel):
        try:
            return execute(fn, cells, parallel)
        except WorkerError:
            return [fn(cell) for cell in cells]

    patch.setattr(sweep, "_execute_cells", rerun_on_worker_error)


def _emission_pins():
    for case in sorted(emission.CASES):
        emission.test_emission_is_byte_identical(case)


MUTANTS = {
    "ledger-retires-at-departure": Mutant(
        _retire_at_departure, lambda: differential.check("packet/incast12-dctcp")
    ),
    "tie-bytes-stop-at-delivery": Mutant(
        _tie_bytes_stop_at_delivery,
        _every_row(*(f"packet/incast12-{cc}-0ns-shards{k}" for cc in ("dctcp", "ndp") for k in (1, 2))),
    ),
    "turnaround-drops-ecn-echo": Mutant(
        _turnaround_drops_ecn_echo, lambda: differential.check("packet/incast12-mprdma")
    ),
    "ready-jumps-heap": Mutant(
        _ready_jumps_heap, _every_row(*(f"packet/tie-heavy-fuzz-{seed}" for seed in range(4)))
    ),
    "load-view-skips-drain": Mutant(
        _load_view_skips_drain, lambda: differential.check("packet/allreduce128x64K-adaptive")
    ),
    "boundary-route-from-replica": Mutant(
        _boundary_route_from_replica, lambda: differential.check("sharded/allreduce32K-dragonfly-1ns-flap-seed3")
    ),
    "merge-keeps-shard0-links": Mutant(
        _merge_keeps_shard0_links, lambda: differential.check("sharded/cotenant-job-stats")
    ),
    "seq-blind-ready-queue": Mutant(
        lambda patch: patch.setattr(EventQueue, "run", _seq_blind_run),
        lambda: [differential.check(name) for name in ("loggops/tie-heavy-fuzz-0", "loggops/hpcg-rendezvous")],
    ),
    "unstable-merge-sort": Mutant(_unstable_merge, lambda: differential.check("records/tied-merge-0")),
    "exchange-swaps-send-recv": Mutant(_recv_before_send, _emission_pins, AssertionError),
    "grouping-pairs-lifo": Mutant(_lifo_pairing, _grouping_grid, AssertionError),
    "serial-rerun-on-worker-error": Mutant(
        _serial_rerun, test_workers.test_dead_sweep_worker_names_its_cell_and_nothing_reruns, pytest.fail.Exception
    ),
}
