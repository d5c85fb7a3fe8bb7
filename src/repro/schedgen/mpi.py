"""MPI trace → GOAL conversion (the paper's Schedgen, §3.1.1).

The generator walks every rank's traced call sequence:

* the gap between the end of one call and the start of the next becomes a
  ``calc`` vertex (the inferred computation), optionally scaled by
  ``compute_scale`` to retarget a different machine (paper §7),
* point-to-point calls become ``send`` / ``recv`` vertices (``MPI_Sendrecv``
  becomes a send and a receive that may proceed concurrently),
* collective calls are substituted by their point-to-point algorithms,
  resolved through the :mod:`repro.collectives.algorithms` registry and
  selected per collective via the ``algorithms`` mapping — including the
  hierarchical two-level algorithms (pass ``groups`` or a ``topology`` to
  derive the locality partition) and ``"auto"``, which asks the registry's
  LogGOPS autotuner to pick per (collective, size, group shape).

Because a collective's decomposition spans all ranks of its communicator,
ranks are processed co-routine style: each rank advances until it blocks on a
collective; once every member of a communicator blocks on the same
collective instance (same per-communicator sequence number), that collective
is emitted and the ranks resume.  A trace in which collectives do not line up
(as would deadlock in a real MPI run) raises :class:`TraceMismatchError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.collectives import mpi as calgs
from repro.collectives.algorithms import COLLECTIVE_ALGORITHMS, resolve_algorithm
from repro.collectives.context import (
    CollectiveContext,
    TagAllocator,
    groups_from_topology,
    project_groups,
)
from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule
from repro.tracers.mpi import COLLECTIVE_CALLS, MpiEvent, MpiTrace

#: Offset separating application point-to-point tags from collective tags.
P2P_TAG_BASE = 1 << 30


class TraceMismatchError(RuntimeError):
    """Raised when the per-rank call sequences cannot be reconciled.

    This happens when ranks of one communicator disagree on the order of
    collectives — such a program would also deadlock on a real machine.
    """


#: Below this size, allreduces default to recursive doubling (latency bound),
#: above it to the ring algorithm (bandwidth bound) — mirroring common MPI
#: library switch points.
ALLREDUCE_RD_THRESHOLD = 16 * 1024


# size rules: the traced bytes and the communicator size -> the bytes the
# decomposition takes
def _as_traced(size: int, n: int) -> int:
    return size


def _gathered(size: int, n: int) -> int:
    # allgather traces each rank's contribution; its algorithms take the total
    return size * n


def _one_byte(size: int, n: int) -> int:
    return 1


#: MPI call -> (decomposition, size rule, rooted, default algorithm name).
#: The decomposition is a registry collective kind, or the one function of a
#: call the registry does not cover.
_CALLS = {
    "MPI_Allreduce": ("allreduce", _as_traced, False, "ring"),
    "MPI_Bcast": ("bcast", _as_traced, True, "binomial"),
    "MPI_Reduce": (calgs.binomial_reduce, _as_traced, True, "binomial"),
    "MPI_Barrier": ("barrier", _one_byte, False, "dissemination"),
    "MPI_Allgather": ("allgather", _gathered, False, "ring"),
    "MPI_Alltoall": ("alltoall", _as_traced, False, "pairwise"),
    "MPI_Gather": (calgs.linear_gather, _as_traced, True, "linear"),
    "MPI_Scatter": (calgs.linear_scatter, _as_traced, True, "linear"),
    "MPI_Reduce_scatter": ("reduce_scatter", _as_traced, False, "ring"),
}

DEFAULT_ALGORITHMS: Dict[str, str] = {call: entry[3] for call, entry in _CALLS.items()}


def _check_algorithm(call: str, name: str) -> None:
    """Reject an ``algorithms`` entry the generator would not use."""
    if call not in _CALLS:
        raise ValueError(
            f"unknown MPI collective {call!r} in algorithms; known: {', '.join(_CALLS)}"
        )
    kind, _, _, default = _CALLS[call]
    if not isinstance(kind, str):
        if name != default:
            raise ValueError(f"{call} has one decomposition, {default!r}; got {name!r}")
    elif name != "auto" and name not in COLLECTIVE_ALGORITHMS[kind]:
        raise ValueError(
            f"unknown {kind} algorithm {name!r} for {call}; registered: "
            f"{', '.join(COLLECTIVE_ALGORITHMS[kind])} (or 'auto')"
        )


@dataclass
class _RankCursor:
    """Progress of one rank through its traced event list."""

    index: int = 0
    last_handle: Optional[int] = None
    prev_end_ns: int = 0
    blocked_gap_emitted: bool = False


class MpiScheduleGenerator:
    """Converts an :class:`~repro.tracers.mpi.MpiTrace` into a GOAL schedule.

    Parameters
    ----------
    trace:
        The input trace.
    algorithms:
        Per-collective algorithm overrides (see :data:`DEFAULT_ALGORITHMS`).
        Values resolve through the :mod:`repro.collectives.algorithms`
        registry; ``"auto"`` engages the LogGOPS autotuner per collective
        instance.  ``MPI_Reduce``, ``MPI_Gather`` and ``MPI_Scatter`` have
        one decomposition each and accept only its name.  An unknown call
        or name raises :class:`ValueError` here, before any conversion.
    compute_scale:
        Multiplier applied to every inferred computation gap (hardware
        retargeting knob).
    reduce_ns_per_byte:
        Cost of reduction arithmetic inserted into reducing collectives.
    groups:
        Locality partition of the *global* ranks (e.g. ranks per node),
        required by the hierarchical algorithms and consulted by
        ``"auto"``.  Derived from ``topology`` when omitted.
    topology / placement:
        Optional :class:`~repro.network.topology.base.Topology` (plus a
        ``{rank -> host}`` placement) used to derive ``groups`` and to
        make ``"auto"`` selections latency/oversubscription-aware.
    select_params:
        :class:`~repro.network.config.LogGOPSParams` priced by ``"auto"``
        (defaults to the paper's AI-cluster values).
    """

    def __init__(
        self,
        trace: MpiTrace,
        algorithms: Optional[Dict[str, str]] = None,
        compute_scale: float = 1.0,
        reduce_ns_per_byte: float = 0.0,
        groups: Optional[List[List[int]]] = None,
        topology=None,
        placement: Optional[Dict[int, int]] = None,
        select_params=None,
    ) -> None:
        if compute_scale < 0:
            raise ValueError("compute_scale must be non-negative")
        self.trace = trace
        for call, name in (algorithms or {}).items():
            _check_algorithm(call, name)
        self.algorithms = {**DEFAULT_ALGORITHMS, **(algorithms or {})}
        self.compute_scale = compute_scale
        self.reduce_ns_per_byte = reduce_ns_per_byte
        if groups is None and topology is not None:
            groups = groups_from_topology(range(trace.num_ranks), topology, placement)
        self.groups = [list(g) for g in groups] if groups is not None else None
        self.topology = topology
        self.select_params = select_params
        self.tags = TagAllocator()

    # ------------------------------------------------------------------ public
    def generate(self, name: Optional[str] = None) -> GoalSchedule:
        """Run the conversion and return the GOAL schedule."""
        trace = self.trace
        builder = GoalBuilder(trace.num_ranks, name=name or trace.name)
        cursors = [_RankCursor() for _ in range(trace.num_ranks)]

        progressed = True
        while progressed:
            progressed = False
            # advance every rank to its next collective (or to the end)
            for rank in range(trace.num_ranks):
                if self._advance_rank(builder, cursors, rank):
                    progressed = True
            # emit every collective whose members are all blocked on it
            if self._emit_ready_collectives(builder, cursors):
                progressed = True

        remaining = [
            (rank, len(trace.events[rank]) - cursors[rank].index)
            for rank in range(trace.num_ranks)
            if cursors[rank].index < len(trace.events[rank])
        ]
        if remaining:
            raise TraceMismatchError(
                "collective operations in the trace do not line up across ranks; "
                f"unconsumed events per rank: {remaining[:10]}"
            )
        return builder.build()

    # --------------------------------------------------------------- internals
    def _scaled_gap(self, event: MpiEvent, cursor: _RankCursor) -> int:
        gap = max(0, event.start_ns - cursor.prev_end_ns)
        return int(round(gap * self.compute_scale))

    def _emit_gap(self, builder: GoalBuilder, rank: int, cursor: _RankCursor, event: MpiEvent) -> None:
        """Insert the inferred-computation calc before ``event`` (if any)."""
        gap = self._scaled_gap(event, cursor)
        if gap > 0:
            handle = builder.rank(rank).calc(
                gap, requires=[cursor.last_handle] if cursor.last_handle is not None else []
            )
            cursor.last_handle = handle

    def _advance_rank(self, builder: GoalBuilder, cursors: List[_RankCursor], rank: int) -> bool:
        """Emit P2P/compute ops for ``rank`` until it blocks on a collective.

        Returns True when at least one event was consumed.
        """
        cursor = cursors[rank]
        events = self.trace.events[rank]
        progressed = False
        while cursor.index < len(events):
            event = events[cursor.index]
            if event.call in COLLECTIVE_CALLS:
                if not cursor.blocked_gap_emitted:
                    self._emit_gap(builder, rank, cursor, event)
                    cursor.blocked_gap_emitted = True
                return progressed
            self._emit_gap(builder, rank, cursor, event)
            self._emit_p2p(builder, rank, cursor, event)
            cursor.prev_end_ns = event.end_ns
            cursor.index += 1
            progressed = True
        return progressed

    def _emit_p2p(self, builder: GoalBuilder, rank: int, cursor: _RankCursor, event: MpiEvent) -> None:
        rb = builder.rank(rank)
        reqs = [cursor.last_handle] if cursor.last_handle is not None else []
        tag = P2P_TAG_BASE + event.tag
        if event.call == "MPI_Send":
            cursor.last_handle = rb.send(max(1, event.size), dst=event.peer, tag=tag, requires=reqs)
        elif event.call == "MPI_Recv":
            cursor.last_handle = rb.recv(max(1, event.size), src=event.peer, tag=tag, requires=reqs)
        elif event.call == "MPI_Sendrecv":
            s = rb.send(max(1, event.size), dst=event.peer, tag=tag, requires=reqs)
            r = rb.recv(max(1, event.recv_size or event.size), src=event.recv_peer, tag=tag, requires=reqs)
            cursor.last_handle = rb.join([s, r])
        else:  # pragma: no cover - guarded by KNOWN_CALLS
            raise ValueError(f"unsupported point-to-point call {event.call}")

    # ----------------------------------------------------------- collectives
    def _emit_ready_collectives(self, builder: GoalBuilder, cursors: List[_RankCursor]) -> bool:
        """Emit every collective on which all communicator members are blocked."""
        trace = self.trace
        # (comm, seq, call) -> list of ranks blocked on it
        blocked: Dict[Tuple[int, int, str], List[int]] = {}
        for rank in range(trace.num_ranks):
            cursor = cursors[rank]
            if cursor.index >= len(trace.events[rank]):
                continue
            event = trace.events[rank][cursor.index]
            if event.call in COLLECTIVE_CALLS:
                blocked.setdefault((event.comm, event.seq, event.call), []).append(rank)

        emitted = False
        for (comm, seq, call), ranks_blocked in sorted(blocked.items()):
            members = trace.communicators.get(comm)
            if members is None:
                raise TraceMismatchError(f"event references unknown communicator {comm}")
            if sorted(ranks_blocked) != sorted(members):
                continue  # not everyone has arrived yet
            self._emit_collective(builder, cursors, comm, members, call)
            emitted = True
        return emitted

    def _emit_collective(
        self,
        builder: GoalBuilder,
        cursors: List[_RankCursor],
        comm: int,
        members: List[int],
        call: str,
    ) -> None:
        events = {rank: self.trace.events[rank][cursors[rank].index] for rank in members}
        # all members must agree on size/root; use the root's (or first member's) view
        sample = events[members[0]]
        deps = {
            rank: cursors[rank].last_handle
            for rank in members
            if cursors[rank].last_handle is not None
        }
        ctx = CollectiveContext(
            builder,
            members,
            tags=self.tags,
            reduce_ns_per_byte=self.reduce_ns_per_byte,
            groups=self._comm_groups(members),
        )
        exits = self._dispatch_collective(ctx, call, sample, deps)
        for rank in members:
            cursor = cursors[rank]
            if rank in exits:
                cursor.last_handle = exits[rank]
            cursor.prev_end_ns = events[rank].end_ns
            cursor.index += 1
            cursor.blocked_gap_emitted = False

    def _comm_groups(self, members: List[int]) -> Optional[List[List[int]]]:
        """Locality groups of one communicator (see ``project_groups``)."""
        if self.groups is None:
            return None
        return project_groups(self.groups, members)

    def _dispatch_collective(self, ctx: CollectiveContext, call: str, event: MpiEvent, deps) -> Dict[int, int]:
        kind, size_of, rooted, _ = _CALLS[call]
        size = size_of(max(1, event.size), ctx.size)
        args = {}
        if rooted:
            args["root"] = ctx.ranks.index(event.root) if event.root in ctx.ranks else 0
        if not isinstance(kind, str):
            return kind(ctx, size, deps=deps, **args)
        alg = resolve_algorithm(
            kind, self.algorithms[call], size, ctx.size,
            params=self.select_params, topology=self.topology, groups=ctx.groups,
        )
        if call == "MPI_Allreduce" and alg.name == "ring" and size < ALLREDUCE_RD_THRESHOLD:
            return calgs.recursive_doubling_allreduce(ctx, size, deps)
        return alg.emit(ctx, size, deps, **args)


def mpi_trace_to_goal(
    trace: MpiTrace,
    algorithms: Optional[Dict[str, str]] = None,
    compute_scale: float = 1.0,
    reduce_ns_per_byte: float = 0.0,
    name: Optional[str] = None,
    groups: Optional[List[List[int]]] = None,
    topology=None,
    placement: Optional[Dict[int, int]] = None,
    select_params=None,
) -> GoalSchedule:
    """Convenience wrapper around :class:`MpiScheduleGenerator`."""
    return MpiScheduleGenerator(
        trace,
        algorithms=algorithms,
        compute_scale=compute_scale,
        reduce_ns_per_byte=reduce_ns_per_byte,
        groups=groups,
        topology=topology,
        placement=placement,
        select_params=select_params,
    ).generate(name=name)
