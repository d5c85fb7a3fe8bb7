"""MPI trace → GOAL conversion (the paper's Schedgen, §3.1.1).

Every rank is one :class:`~repro.schedgen.walk.Lane` on compute stream 0,
and :func:`~repro.schedgen.walk.walk` runs the conversion: the gap between
the end of one call and the start of the next becomes a ``calc`` vertex (the
inferred computation), scaled by ``compute_scale`` to retarget a different
machine (paper §7), and a collective waits until every rank of its
communicator has reached the same instance (same per-communicator sequence
number).  This module adds what is MPI about it:

* point-to-point calls become ``send`` / ``recv`` vertices tagged with the
  traced tag above :data:`P2P_TAG_BASE` (``MPI_Sendrecv`` becomes a send
  and a receive that may proceed concurrently),
* collective calls are substituted by their point-to-point algorithms,
  resolved through the :mod:`repro.collectives.algorithms` registry and
  selected per collective via the ``algorithms`` mapping — including the
  hierarchical two-level algorithms (pass ``groups`` or a ``topology`` to
  derive the locality partition) and ``"auto"``, which asks the registry's
  LogGOPS autotuner to pick per (collective, size, group shape).

The ranks of one collective must agree on its traced size and, for a rooted
call, on a root inside the communicator.  A trace that breaks this, or whose
collectives do not line up (as would deadlock a real MPI run), raises
:class:`~repro.schedgen.walk.TraceMismatchError`.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from repro.collectives import mpi as calgs
from repro.collectives.algorithms import COLLECTIVE_ALGORITHMS, resolve_algorithm
from repro.collectives.context import CollectiveContext, groups_from_topology
from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule
from repro.schedgen.walk import Lane, TraceMismatchError, walk
from repro.tracers.mpi import MpiEvent, MpiTrace

#: Offset separating application point-to-point tags from collective tags.
P2P_TAG_BASE = 1 << 30


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


def _collective(event: MpiEvent):
    """``None`` for a point-to-point call, else (call, what its ranks agree on)."""
    if event.call not in _CALLS:
        return None
    agreed = {"size": event.size}
    if _CALLS[event.call][2]:  # rooted
        agreed["root"] = event.root
    return event.call, agreed


def _emit_p2p(rb, lane: Lane, event: MpiEvent, reqs) -> int:
    """A point-to-point call's vertices after ``reqs``; returns the last one."""
    tag = P2P_TAG_BASE + event.tag
    if event.call == "MPI_Send":
        return rb.send(max(1, event.size), event.peer, tag, 0, reqs)
    if event.call == "MPI_Recv":
        return rb.recv(max(1, event.size), event.peer, tag, 0, reqs)
    # MPI_Sendrecv: both legs after the same predecessor, joined
    return rb.sendrecv(
        max(1, event.size), event.peer, max(1, event.recv_size or event.size), event.recv_peer,
        tag, 0, reqs,
    )


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

    def generate(self, name: Optional[str] = None) -> GoalSchedule:
        """Run the conversion and return the GOAL schedule."""
        trace = self.trace
        builder = GoalBuilder(trace.num_ranks, name=name or trace.name)
        walk(
            builder,
            [Lane(rank, 0, trace.events[rank]) for rank in range(trace.num_ranks)],
            trace.communicators,
            self.compute_scale,
            _collective,
            _emit_p2p,
            self._dispatch_collective,
            self.groups,
            self.reduce_ns_per_byte,
        )
        return builder.build()

    def _dispatch_collective(self, ctx: CollectiveContext, call: str, event: MpiEvent, deps) -> Dict[int, int]:
        kind, size_of, rooted, _ = _CALLS[call]
        size = size_of(max(1, event.size), ctx.size)
        args = {}
        if rooted:
            if event.root not in ctx.ranks:
                raise TraceMismatchError(
                    f"{call} (comm {event.comm}, seq {event.seq}): root {event.root} "
                    f"is not a member of communicator {ctx.ranks}"
                )
            args["root"] = ctx.ranks.index(event.root)
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
