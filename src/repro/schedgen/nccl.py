"""NCCL trace → GOAL conversion (the 4-stage pipeline of paper §3.1.2 / Fig. 5).

Stage 1 (profiling) is performed by :class:`repro.tracers.nccl.NcclTracer`
or by loading an nsys-like report from disk.  This module implements:

* **Stage 2** — every (GPU, CUDA stream) kernel list is one
  :class:`~repro.schedgen.walk.Lane`, walked in order by
  :func:`~repro.schedgen.walk.walk`: the computation between consecutive
  kernels is inferred from their timestamps, compute kernels become
  ``calc`` vertices, and each stream of a GPU keeps its own compute stream
  (a slot numbered by sorted CUDA stream id) so that they execute
  concurrently.
* **Stage 3** — once every member GPU has reached an NCCL collective, it is
  decomposed into its point-to-point algorithm according to the NCCL
  configuration (algorithm, protocol, channels) via
  :mod:`repro.collectives.nccl`, on the stream it was launched on;
  ncclSend/ncclRecv pairs are matched by their per-(source, destination)
  order.  A ``collective_algorithm`` override substitutes an algorithm from
  the :mod:`repro.collectives.algorithms` registry instead — including the
  hierarchical two-level variants over the report's physical node grouping
  and ``"auto"``, the LogGOPS autotuner.  The GPUs of one collective must
  agree on its size; collectives that do not line up raise
  :class:`~repro.schedgen.walk.TraceMismatchError`.
* **Stage 4** — the per-GPU DAGs are grouped into per-node DAGs with
  intra-node transfers replaced by ``calc`` vertices
  (:func:`repro.schedgen.grouping.group_ranks_into_nodes`); alternative
  groupings support the paper's "what-if" restructuring.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.collectives import nccl as cnccl
from repro.collectives.algorithms import COLLECTIVE_ALGORITHMS, resolve_algorithm
from repro.collectives.context import CollectiveContext, contiguous_groups
from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule
from repro.schedgen.grouping import group_ranks_into_nodes
from repro.schedgen.walk import Lane, scaled_ns, walk
from repro.tracers.nccl import NCCL_COLLECTIVES, GpuKernel, NsysReport

#: Offset separating point-to-point (ncclSend/ncclRecv) tags from collective tags.
P2P_TAG_BASE = 1 << 29


def _collective(kernel: GpuKernel):
    """``None`` for a compute or Send/Recv kernel, else (op, what its GPUs agree on)."""
    if kernel.kind == "nccl" and kernel.op in NCCL_COLLECTIVES:
        return kernel.op, {"size": kernel.size}
    return None


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

    # ------------------------------------------------------------------ public
    def generate_gpu_schedule(self, name: Optional[str] = None) -> GoalSchedule:
        """Stages 2–3: produce the GOAL schedule with one rank per GPU."""
        report = self.report
        builder = GoalBuilder(report.num_gpus, name=name or report.name)
        compute_scale = self.compute_scale
        # ncclSend/ncclRecv pairs are matched by their order per (source, destination)
        matched: Dict[Tuple[str, int, int], int] = {}

        def emit(rb, lane: Lane, kernel: GpuKernel, reqs) -> int:
            if kernel.kind == "compute":
                return rb.calc(scaled_ns(kernel.end_ns - kernel.start_ns, compute_scale), lane.cpu, reqs)
            key = (kernel.op, lane.rank, kernel.peer)
            count = matched.get(key, 0)
            matched[key] = count + 1
            post = rb.send if kernel.op == "Send" else rb.recv
            return post(max(1, kernel.size), kernel.peer, P2P_TAG_BASE + count, lane.cpu, reqs)

        # one lane per (GPU, stream); stream ids become consecutive slots per
        # GPU so the stream_stride bound of Stage 4 holds whatever the CUDA ids
        lanes = [
            Lane(gpu, slot, report.streams[gpu][stream].kernels)
            for gpu in range(report.num_gpus)
            for slot, stream in enumerate(sorted(report.streams[gpu]))
        ]
        walk(
            builder, lanes, report.communicators, compute_scale, _collective, emit,
            self._decompose, self._node_groups,
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
    def _decompose(self, ctx: CollectiveContext, op: str, kernel: GpuKernel, deps) -> Dict[int, int]:
        """Stage 3 for one collective, on the stream it was launched on.

        Channels add further streams on top of ``ctx.cpu``.
        """
        size = max(1, kernel.size)
        kind, nccl_emit = self._OPS[op]
        name = self.collective_algorithm
        if name == "auto" or name in COLLECTIVE_ALGORITHMS[kind]:
            alg = resolve_algorithm(
                kind, name, size, ctx.size, params=self.select_params, groups=ctx.groups
            )
            return alg.emit(ctx, size, deps)
        return nccl_emit(ctx, size, self.nccl_config, deps=deps)

    #: NCCL kernel name -> (collective kind of the algorithm registry, the
    #: NCCL-configured decomposition used when no override applies).
    _OPS = {
        "AllReduce": ("allreduce", cnccl.allreduce),
        "AllGather": ("allgather", cnccl.allgather),
        "ReduceScatter": ("reduce_scatter", cnccl.reduce_scatter),
        "Broadcast": ("bcast", cnccl.broadcast),
        "AllToAll": ("alltoall", cnccl.alltoall),
    }


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
