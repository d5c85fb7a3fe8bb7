"""NCCL trace → GOAL conversion (the 4-stage pipeline of paper §3.1.2 / Fig. 5).

Stage 1 (profiling) is performed by :class:`repro.tracers.nccl.NcclTracer`
or by loading an nsys-like report from disk.  This module implements:

* **Stage 2** — per GPU and per CUDA stream, NCCL kernels are linked in
  order, the computation between consecutive kernels is inferred from their
  timestamps, and the streams of a GPU are tied together with zero-cost
  dummy vertices so that they can execute concurrently on distinct compute
  streams.
* **Stage 3** — every NCCL collective is decomposed into its point-to-point
  algorithm according to the NCCL configuration (algorithm, protocol,
  channels) via :mod:`repro.collectives.nccl`; ncclSend/ncclRecv pairs are
  matched by their per-(source, destination) order.  A
  ``collective_algorithm`` override substitutes an algorithm from the
  :mod:`repro.collectives.algorithms` registry instead — including the
  hierarchical two-level variants over the report's physical node grouping
  and ``"auto"``, the LogGOPS autotuner.
* **Stage 4** — the per-GPU DAGs are grouped into per-node DAGs with
  intra-node transfers replaced by ``calc`` vertices
  (:func:`repro.schedgen.grouping.group_ranks_into_nodes`); alternative
  groupings support the paper's "what-if" restructuring.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.collectives import nccl as cnccl
from repro.collectives.algorithms import COLLECTIVE_ALGORITHMS, resolve_algorithm
from repro.collectives.context import (
    CollectiveContext,
    TagAllocator,
    contiguous_groups,
    project_groups,
)
from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule
from repro.schedgen.grouping import group_ranks_into_nodes
from repro.tracers.nccl import NCCL_COLLECTIVES, GpuKernel, NsysReport

#: Offset separating point-to-point (ncclSend/ncclRecv) tags from collective tags.
P2P_TAG_BASE = 1 << 29


class NcclTraceMismatchError(RuntimeError):
    """Raised when collective calls cannot be correlated across GPUs."""


@dataclass
class _StreamCursor:
    """Progress of one (gpu, stream) kernel list."""

    gpu: int
    stream: int
    kernels: List[GpuKernel]
    index: int = 0
    last_handle: Optional[int] = None
    prev_end_ns: int = 0
    blocked_gap_emitted: bool = False

    def done(self) -> bool:
        return self.index >= len(self.kernels)

    def head(self) -> GpuKernel:
        return self.kernels[self.index]


class NcclScheduleGenerator:
    """Converts an :class:`~repro.tracers.nccl.NsysReport` into GOAL.

    Parameters
    ----------
    report:
        The per-GPU trace.
    nccl_config:
        NCCL algorithm/protocol/channel configuration used for Stage 3.
    compute_scale:
        Multiplier on inferred computation (hardware retargeting, paper §7).
    gpus_per_node:
        Stage-4 grouping granularity; ``None`` uses the report's value, and
        ``1`` keeps one GOAL rank per GPU (no grouping).
    intra_node_ns_per_byte / intra_node_latency_ns:
        Intra-node (NVLink) transfer cost used when replacing same-node
        communication with ``calc`` vertices.
    collective_algorithm:
        Optional override of Stage 3's collective decomposition: a name
        from the :mod:`repro.collectives.algorithms` registry (e.g.
        ``"hier_rs"``, ``"recursive_halving_doubling"``) or ``"auto"`` for
        the LogGOPS autotuner.  Applies to every collective kind the name
        is registered for (others keep the NCCL chunked ring/tree path);
        the locality hierarchy groups consecutive GPU ids by the *effective*
        node width — the ``gpus_per_node`` override when one is given (so
        hierarchical algorithms optimise for the same node boundary Stage 4
        simulates, including "what-if" regroupings), else the report's
        physical ``gpus_per_node``.  ``None`` (the default) keeps the
        NCCL-configured decomposition exactly.  A name registered for no
        kind an NCCL kernel can be (e.g. the barrier's ``"dissemination"``)
        raises :class:`ValueError`.
    """

    def __init__(
        self,
        report: NsysReport,
        nccl_config: Optional[cnccl.NcclConfig] = None,
        compute_scale: float = 1.0,
        gpus_per_node: Optional[int] = None,
        intra_node_ns_per_byte: float = 1.0 / 150.0,
        intra_node_latency_ns: int = 700,
        stream_stride: int = 16,
        collective_algorithm: Optional[str] = None,
        select_params=None,
    ) -> None:
        if compute_scale < 0:
            raise ValueError("compute_scale must be non-negative")
        self.report = report
        self.nccl_config = nccl_config or cnccl.NcclConfig()
        self.compute_scale = compute_scale
        self.gpus_per_node = report.gpus_per_node if gpus_per_node is None else gpus_per_node
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        self.intra_node_ns_per_byte = intra_node_ns_per_byte
        self.intra_node_latency_ns = intra_node_latency_ns
        self.stream_stride = stream_stride
        # only the kinds a kernel can be: a barrier algorithm would never apply
        registered = list(dict.fromkeys(
            n for kind, _ in self._OPS.values() for n in COLLECTIVE_ALGORITHMS[kind]
        ))
        if collective_algorithm not in (None, "auto", *registered):
            raise ValueError(
                f"unknown collective algorithm {collective_algorithm!r}; registered: "
                f"{', '.join(registered)} (or 'auto')"
            )
        self.collective_algorithm = collective_algorithm
        self.select_params = select_params
        # locality: consecutive GPU ids share a node, at the node width
        # Stage 4 will actually simulate (the explicit override wins so the
        # hierarchy and the grouping agree; see the class docstring)
        node_width = self.gpus_per_node if gpus_per_node is not None else report.gpus_per_node
        self._node_groups = contiguous_groups(report.num_gpus, max(1, node_width))
        self.tags = TagAllocator()

    # ------------------------------------------------------------------ public
    def generate_gpu_schedule(self, name: Optional[str] = None) -> GoalSchedule:
        """Stages 2–3: produce the GOAL schedule with one rank per GPU."""
        report = self.report
        builder = GoalBuilder(report.num_gpus, name=name or report.name)

        # stream indices are remapped to small consecutive ints per GPU so the
        # stream_stride bound of Stage 4 holds regardless of CUDA stream ids
        cursors: List[_StreamCursor] = []
        self._stream_slot: Dict[Tuple[int, int], int] = {}
        for gpu in range(report.num_gpus):
            for slot, stream_id in enumerate(sorted(report.streams[gpu])):
                self._stream_slot[(gpu, stream_id)] = slot
                cursors.append(
                    _StreamCursor(gpu=gpu, stream=stream_id, kernels=report.streams[gpu][stream_id].kernels)
                )

        # per-(src,dst) point-to-point order counters for send/recv correlation
        self._p2p_send_count: Dict[Tuple[int, int], int] = {}
        self._p2p_recv_count: Dict[Tuple[int, int], int] = {}

        progressed = True
        while progressed:
            progressed = False
            for cursor in cursors:
                if self._advance_stream(builder, cursor):
                    progressed = True
            if self._emit_ready_collectives(builder, cursors):
                progressed = True

        unconsumed = [(c.gpu, c.stream, len(c.kernels) - c.index) for c in cursors if not c.done()]
        if unconsumed:
            raise NcclTraceMismatchError(
                "NCCL collectives do not line up across GPUs; unconsumed kernels "
                f"(gpu, stream, remaining): {unconsumed[:10]}"
            )
        return builder.build()

    def generate(self, name: Optional[str] = None) -> GoalSchedule:
        """Full pipeline: Stages 2–4 (per-node schedule)."""
        gpu_schedule = self.generate_gpu_schedule(name=name)
        if self.gpus_per_node <= 1:
            return gpu_schedule
        return group_ranks_into_nodes(
            gpu_schedule,
            ranks_per_node=self.gpus_per_node,
            intra_node_ns_per_byte=self.intra_node_ns_per_byte,
            intra_node_latency_ns=self.intra_node_latency_ns,
            stream_stride=self.stream_stride,
            name=(name or self.report.name),
        )

    # --------------------------------------------------------------- internals
    def _stream_cpu(self, gpu: int, stream: int) -> int:
        return self._stream_slot[(gpu, stream)]

    def _emit_gap(self, builder: GoalBuilder, cursor: _StreamCursor, kernel: GpuKernel) -> None:
        gap = max(0, kernel.start_ns - cursor.prev_end_ns)
        gap = int(round(gap * self.compute_scale))
        if gap > 0:
            handle = builder.rank(cursor.gpu).calc(
                gap,
                cpu=self._stream_cpu(cursor.gpu, cursor.stream),
                requires=[cursor.last_handle] if cursor.last_handle is not None else [],
            )
            cursor.last_handle = handle

    def _advance_stream(self, builder: GoalBuilder, cursor: _StreamCursor) -> bool:
        """Emit compute/P2P kernels until the stream blocks on a collective."""
        progressed = False
        cpu = self._stream_cpu(cursor.gpu, cursor.stream)
        rb = builder.rank(cursor.gpu)
        while not cursor.done():
            kernel = cursor.head()
            if kernel.kind == "nccl" and kernel.op in NCCL_COLLECTIVES:
                if not cursor.blocked_gap_emitted:
                    self._emit_gap(builder, cursor, kernel)
                    cursor.blocked_gap_emitted = True
                return progressed
            self._emit_gap(builder, cursor, kernel)
            reqs = [cursor.last_handle] if cursor.last_handle is not None else []
            if kernel.kind == "compute":
                duration = int(round((kernel.end_ns - kernel.start_ns) * self.compute_scale))
                cursor.last_handle = rb.calc(max(0, duration), cpu=cpu, requires=reqs)
            elif kernel.op == "Send":
                key = (cursor.gpu, kernel.peer)
                count = self._p2p_send_count.get(key, 0)
                self._p2p_send_count[key] = count + 1
                tag = P2P_TAG_BASE + count
                cursor.last_handle = rb.send(max(1, kernel.size), dst=kernel.peer, tag=tag, cpu=cpu, requires=reqs)
            elif kernel.op == "Recv":
                key = (kernel.peer, cursor.gpu)
                count = self._p2p_recv_count.get(key, 0)
                self._p2p_recv_count[key] = count + 1
                tag = P2P_TAG_BASE + count
                cursor.last_handle = rb.recv(max(1, kernel.size), src=kernel.peer, tag=tag, cpu=cpu, requires=reqs)
            else:  # pragma: no cover - collectives handled above
                raise NcclTraceMismatchError(f"unexpected NCCL op {kernel.op}")
            cursor.prev_end_ns = kernel.end_ns
            cursor.index += 1
            progressed = True
        return progressed

    def _emit_ready_collectives(self, builder: GoalBuilder, cursors: List[_StreamCursor]) -> bool:
        """Emit collectives once every member GPU has blocked on the same one."""
        report = self.report
        blocked: Dict[Tuple[int, int, str], List[_StreamCursor]] = {}
        for cursor in cursors:
            if cursor.done():
                continue
            kernel = cursor.head()
            if kernel.kind == "nccl" and kernel.op in NCCL_COLLECTIVES:
                blocked.setdefault((kernel.comm, kernel.seq, kernel.op), []).append(cursor)

        emitted = False
        for (comm, seq, op), waiting in sorted(blocked.items(), key=lambda kv: kv[0]):
            members = report.communicators.get(comm)
            if members is None:
                raise NcclTraceMismatchError(f"kernel references unknown communicator {comm}")
            waiting_gpus = sorted(c.gpu for c in waiting)
            if waiting_gpus != sorted(members):
                continue
            self._emit_collective(builder, comm, members, op, waiting)
            emitted = True
        return emitted

    def _emit_collective(
        self,
        builder: GoalBuilder,
        comm: int,
        members: List[int],
        op: str,
        waiting: List[_StreamCursor],
    ) -> None:
        by_gpu = {c.gpu: c for c in waiting}
        sample = by_gpu[members[0]].head()
        size = max(1, sample.size)
        deps = {
            gpu: cursor.last_handle for gpu, cursor in by_gpu.items() if cursor.last_handle is not None
        }
        # place the decomposition on the stream each collective was launched on
        # (channels add further streams on top of this base)
        base_cpu = self._stream_cpu(members[0], by_gpu[members[0]].stream)
        ctx = CollectiveContext(
            builder,
            members,
            tags=self.tags,
            cpu=base_cpu,
            groups=self._comm_groups(members),
        )
        kind, nccl_emit = self._OPS[op]
        name = self.collective_algorithm
        if name == "auto" or name in COLLECTIVE_ALGORITHMS[kind]:
            alg = resolve_algorithm(
                kind, name, size, ctx.size, params=self.select_params, groups=ctx.groups
            )
            exits = alg.emit(ctx, size, deps)
        else:
            exits = nccl_emit(ctx, size, self.nccl_config, deps=deps)

        for gpu, cursor in by_gpu.items():
            if gpu in exits:
                cursor.last_handle = exits[gpu]
            cursor.prev_end_ns = cursor.head().end_ns
            cursor.index += 1
            cursor.blocked_gap_emitted = False

    #: NCCL kernel name -> (collective kind of the algorithm registry, the
    #: NCCL-configured decomposition used when no override applies).
    _OPS = {
        "AllReduce": ("allreduce", cnccl.allreduce),
        "AllGather": ("allgather", cnccl.allgather),
        "ReduceScatter": ("reduce_scatter", cnccl.reduce_scatter),
        "Broadcast": ("bcast", cnccl.broadcast),
        "AllToAll": ("alltoall", cnccl.alltoall),
    }

    def _comm_groups(self, members: List[int]) -> List[List[int]]:
        """Node-locality groups of one communicator (see ``project_groups``)."""
        return project_groups(self._node_groups, members)


def nccl_trace_to_goal(
    report: NsysReport,
    nccl_config: Optional[cnccl.NcclConfig] = None,
    compute_scale: float = 1.0,
    gpus_per_node: Optional[int] = None,
    name: Optional[str] = None,
    collective_algorithm: Optional[str] = None,
) -> GoalSchedule:
    """Convenience wrapper around :class:`NcclScheduleGenerator` (full pipeline)."""
    return NcclScheduleGenerator(
        report,
        nccl_config=nccl_config,
        compute_scale=compute_scale,
        gpus_per_node=gpus_per_node,
        collective_algorithm=collective_algorithm,
    ).generate(name=name)
