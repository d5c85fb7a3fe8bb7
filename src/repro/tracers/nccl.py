"""Nsight-Systems-style GPU traces with NCCL annotations.

The paper profiles AI applications with ``nsys`` and an NVTX-annotated NCCL
build (§3.1.2, Stage 1).  The information the GOAL pipeline actually uses is,
per GPU and per CUDA stream, the ordered list of kernels with

* their start/end timestamps (to infer inter-kernel computation, Stage 2),
* for NCCL kernels: the collective type, byte count, communicator and peer
  (the NVTX annotations the authors added, Stage 3).

This module defines those records, a JSON-lines serialisation whose size
stands in for the "nsys report" sizes of Table 1, and the
:class:`NcclTracer` used by the AI application models in
:mod:`repro.apps.ai`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

#: NCCL operations understood by the GOAL generator.
NCCL_COLLECTIVES = {
    "AllReduce",
    "Broadcast",
    "AllGather",
    "ReduceScatter",
    "AllToAll",
}
NCCL_P2P = {"Send", "Recv"}
NCCL_OPS = NCCL_COLLECTIVES | NCCL_P2P


@dataclass(slots=True)
class GpuKernel:
    """One kernel execution on one CUDA stream of one GPU.

    ``kind`` is ``"compute"`` for ordinary kernels and ``"nccl"`` for NCCL
    kernels.  NCCL kernels carry the operation name, byte count, communicator
    id and — for point-to-point operations — the peer GPU.
    """

    kind: str
    name: str
    start_ns: int
    end_ns: int
    op: Optional[str] = None
    size: int = 0
    comm: int = 0
    peer: Optional[int] = None
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("compute", "nccl"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.end_ns < self.start_ns:
            raise ValueError("kernel ends before it starts")
        if self.kind == "nccl":
            if self.op not in NCCL_OPS:
                raise ValueError(f"unknown NCCL op {self.op!r}")
            if self.size < 0:
                raise ValueError("NCCL op size must be non-negative")


@dataclass
class GpuStreamTrace:
    """Ordered kernel list of one CUDA stream on one GPU."""

    stream: int
    kernels: List[GpuKernel] = field(default_factory=list)

    def add(self, kernel: GpuKernel) -> None:
        if self.kernels and kernel.start_ns < self.kernels[-1].end_ns:
            raise ValueError(
                f"stream {self.stream}: kernel {kernel.name} starts before the previous one ended"
            )
        self.kernels.append(kernel)


@dataclass
class NsysReport:
    """Per-run nsys-like report: per GPU, per stream, kernel lists.

    Attributes
    ----------
    num_gpus:
        Number of GPUs profiled.
    gpus_per_node:
        How GPUs map onto nodes (used by Stage 4 grouping and recorded in the
        report header, as the real setup files do).
    communicators:
        Communicator id -> ordered list of member GPU ids.
    """

    num_gpus: int
    name: str = "ai-app"
    gpus_per_node: int = 4
    streams: List[Dict[int, GpuStreamTrace]] = field(default_factory=list)
    communicators: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        if not self.streams:
            self.streams = [dict() for _ in range(self.num_gpus)]
        if len(self.streams) != self.num_gpus:
            raise ValueError("need one stream map per GPU")
        self.communicators.setdefault(0, list(range(self.num_gpus)))

    @property
    def num_nodes(self) -> int:
        return (self.num_gpus + self.gpus_per_node - 1) // self.gpus_per_node

    def stream(self, gpu: int, stream: int) -> GpuStreamTrace:
        """Get (creating if needed) the trace of ``stream`` on ``gpu``."""
        streams = self.streams[gpu]
        if stream not in streams:
            streams[stream] = GpuStreamTrace(stream=stream)
        return streams[stream]

    def num_kernels(self) -> int:
        return sum(len(s.kernels) for gpu in self.streams for s in gpu.values())

    def nccl_kernels(self, gpu: int) -> List[Tuple[int, GpuKernel]]:
        """All NCCL kernels of ``gpu`` as ``(stream, kernel)`` in time order."""
        out: List[Tuple[int, GpuKernel]] = []
        for stream_id, stream in self.streams[gpu].items():
            for k in stream.kernels:
                if k.kind == "nccl":
                    out.append((stream_id, k))
        out.sort(key=lambda sk: sk[1].start_ns)
        return out

    # ------------------------------------------------------------- serialisation
    def to_json(self) -> str:
        """Serialise to a JSON-lines string (header line + one line per kernel)."""
        lines = [
            json.dumps(
                {
                    "type": "header",
                    "name": self.name,
                    "num_gpus": self.num_gpus,
                    "gpus_per_node": self.gpus_per_node,
                    "communicators": {str(k): v for k, v in self.communicators.items()},
                }
            )
        ]
        for gpu, streams in enumerate(self.streams):
            for stream_id in sorted(streams):
                for k in streams[stream_id].kernels:
                    rec = {"type": "kernel", "gpu": gpu, "stream": stream_id}
                    rec.update(asdict(k))
                    lines.append(json.dumps(rec))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NsysReport":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise ValueError("not an nsys-like report (missing header line)")
        report = cls(
            num_gpus=header["num_gpus"],
            name=header.get("name", "ai-app"),
            gpus_per_node=header.get("gpus_per_node", 4),
        )
        report.communicators = {int(k): v for k, v in header.get("communicators", {}).items()}
        report.communicators.setdefault(0, list(range(report.num_gpus)))
        for line in lines[1:]:
            rec = json.loads(line)
            if rec.get("type") != "kernel":
                continue
            gpu, stream_id = rec.pop("gpu"), rec.pop("stream")
            rec.pop("type")
            report.stream(gpu, stream_id).add(GpuKernel(**rec))
        return report

    def to_file(self, path: str) -> int:
        data = self.to_json().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def from_file(cls, path: str) -> "NsysReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def size_bytes(self) -> int:
        """Size of the serialisation (stand-in for the on-disk nsys report size)."""
        return len(self.to_json().encode("utf-8"))


class NcclTracer:
    """Builds an :class:`NsysReport` while an AI application model executes.

    The tracer keeps one clock per (GPU, stream); compute kernels and NCCL
    kernels advance it.  NCCL collectives get a per-communicator sequence
    number so Stage 3 can correlate the same collective across GPUs.
    """

    def __init__(self, num_gpus: int, gpus_per_node: int = 4, name: str = "ai-app") -> None:
        self.report = NsysReport(num_gpus=num_gpus, gpus_per_node=gpus_per_node, name=name)
        self._clock: Dict[Tuple[int, int], int] = {}
        self._coll_seq: Dict[Tuple[int, int], int] = {}  # (comm, gpu) -> next seq

    @property
    def num_gpus(self) -> int:
        return self.report.num_gpus

    def define_communicator(self, comm: int, members: Sequence[int]) -> None:
        self.report.communicators[comm] = list(members)

    def now(self, gpu: int, stream: int) -> int:
        return self._clock.get((gpu, stream), 0)

    def advance_to(self, gpu: int, stream: int, time_ns: int) -> None:
        """Move a stream clock forward to ``time_ns`` (idle gap, no kernel)."""
        key = (gpu, stream)
        if time_ns > self._clock.get(key, 0):
            self._clock[key] = time_ns

    def compute(self, gpu: int, stream: int, duration_ns: int, name: str = "compute_kernel") -> GpuKernel:
        """Record a compute kernel of ``duration_ns`` on ``(gpu, stream)``."""
        start = self.now(gpu, stream)
        end = start + max(1, int(duration_ns))
        kernel = GpuKernel(kind="compute", name=name, start_ns=start, end_ns=end)
        self.report.stream(gpu, stream).add(kernel)
        self._clock[(gpu, stream)] = end
        return kernel

    def nccl(
        self,
        gpu: int,
        stream: int,
        op: str,
        size: int,
        comm: int = 0,
        peer: Optional[int] = None,
        duration_ns: Optional[int] = None,
    ) -> GpuKernel:
        """Record an NCCL kernel on ``(gpu, stream)``.

        The duration defaults to a crude bandwidth model (it only affects the
        traced timestamps, not the generated schedule, mirroring how the real
        pipeline ignores traced NCCL durations).
        """
        if op not in NCCL_OPS:
            raise ValueError(f"unknown NCCL op {op!r}")
        start = self.now(gpu, stream)
        if duration_ns is None:
            duration_ns = 2000 + int(size * 0.01)
        end = start + max(1, int(duration_ns))
        seq = 0
        if op in NCCL_COLLECTIVES:
            key = (comm, gpu)
            seq = self._coll_seq.get(key, 0)
            self._coll_seq[key] = seq + 1
        kernel = GpuKernel(
            kind="nccl",
            name=f"nccl{op}Kernel",
            start_ns=start,
            end_ns=end,
            op=op,
            size=size,
            comm=comm,
            peer=peer,
            seq=seq,
        )
        self.report.stream(gpu, stream).add(kernel)
        self._clock[(gpu, stream)] = end
        return kernel

    def finish(self) -> NsysReport:
        return self.report
