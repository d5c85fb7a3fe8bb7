"""NCCL-style collective decomposition (Stage 3 of the paper's AI pipeline).

Unlike MPI collectives, NCCL schedules depend on the library's configuration
parameters (paper §3.1.2 Stage 3): the algorithm (``NCCL_ALGO`` — ring or
tree), the protocol (``NCCL_PROTO`` — Simple, LL or LL128) and the number of
channels (``NCCL_MAX_NCHANNELS``).  The data is striped across channels, each
channel is driven by one SM (modelled as one GOAL compute stream) and every
per-step transfer is further pipelined into protocol-sized chunks — the
behaviour illustrated by the paper's Fig. 4 where a 2 MB broadcast becomes
four sequential 0.5 MB sends.

Every function emits point-to-point GOAL ops into the context's builder and
returns a ``DepMap`` of exit handles per global rank, exactly like the MPI
algorithms in :mod:`repro.collectives.mpi`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.collectives import mpi as _mpi
from repro.collectives.context import CollectiveContext, DepMap

#: Default chunk size per protocol (bytes).  The Simple protocol moves large
#: chunks through FIFO buffers; LL/LL128 use small flagged lines, which we
#: model as smaller chunks plus a per-chunk latency overhead.
PROTOCOL_CHUNK_BYTES = {
    "Simple": 1 << 19,  # 512 KiB
    "LL": 1 << 15,      # 32 KiB
    "LL128": 1 << 17,   # 128 KiB
}

#: Effective bandwidth efficiency of each protocol (LL sends 50% flags).
PROTOCOL_EFFICIENCY = {
    "Simple": 1.0,
    "LL": 0.5,
    "LL128": 0.95,
}


@dataclass(frozen=True)
class NcclConfig:
    """NCCL tuning parameters that shape the decomposed schedule.

    Attributes
    ----------
    algorithm:
        ``"ring"`` or ``"tree"`` (``NCCL_ALGO``).
    protocol:
        ``"Simple"``, ``"LL"`` or ``"LL128"`` (``NCCL_PROTO``).
    nchannels:
        Number of channels (``NCCL_MAX_NCHANNELS``); the buffer is striped
        across channels and each channel occupies its own compute stream.
    chunk_bytes:
        Chunk granularity of the pipeline; defaults to the protocol's value.
    max_chunks_per_step:
        Safety cap on pipeline depth per ring step, to bound the number of
        GOAL vertices generated for very large buffers.
    """

    algorithm: str = "ring"
    protocol: str = "Simple"
    nchannels: int = 2
    chunk_bytes: Optional[int] = None
    max_chunks_per_step: int = 8

    def __post_init__(self) -> None:
        if self.algorithm not in ("ring", "tree"):
            raise ValueError(f"unknown NCCL algorithm {self.algorithm!r}")
        if self.protocol not in PROTOCOL_CHUNK_BYTES:
            raise ValueError(f"unknown NCCL protocol {self.protocol!r}")
        if self.nchannels <= 0:
            raise ValueError("nchannels must be positive")
        if self.max_chunks_per_step <= 0:
            raise ValueError("max_chunks_per_step must be positive")
        if self.chunk_bytes is not None and self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive when set")

    def effective_chunk_bytes(self) -> int:
        """Chunk granularity in bytes (the protocol default unless overridden)."""
        return self.chunk_bytes if self.chunk_bytes else PROTOCOL_CHUNK_BYTES[self.protocol]

    def effective_channels(self, size: int) -> int:
        """Channels actually used for a ``size``-byte collective.

        Degenerate collectives (zero bytes, or fewer bytes than channels)
        use as many channels as there are bytes — at least one — so a
        1-byte allreduce is a single 1-byte pipeline, not ``nchannels``
        phantom control messages per ring step.
        """
        if size < self.nchannels:
            return max(1, size)
        return self.nchannels

    def wire_size(self, payload: int) -> int:
        """Bytes on the wire for ``payload`` bytes of user data."""
        return max(1, int(round(payload / PROTOCOL_EFFICIENCY[self.protocol])))


def _pieces(step_bytes: int, cfg: NcclConfig) -> List[int]:
    """Split one ring-step transfer into pipelined chunks."""
    if step_bytes <= 0:
        return [1]
    chunk = cfg.effective_chunk_bytes()
    n = min(cfg.max_chunks_per_step, max(1, (step_bytes + chunk - 1) // chunk))
    return _mpi._chunk_sizes(step_bytes, n)


def _striped(
    ctx: CollectiveContext,
    size: int,
    cfg: NcclConfig,
    deps: Optional[DepMap],
    channel: Callable[[int, int], DepMap],
) -> DepMap:
    """Stripe ``size`` bytes over the channels; join each rank's channel exits.

    ``channel(nbytes, stream)`` emits one channel's share on its own compute
    stream (``ctx.cpu + channel index``) and returns its exits.  A one-rank
    communicator emits nothing and returns its entries.
    """
    if ctx.size == 1:
        return ctx.exits(ctx.entry(deps))
    exits: Dict[int, List[int]] = {g: [] for g in ctx.ranks}
    for index, nbytes in enumerate(_mpi._chunk_sizes(size, cfg.effective_channels(size))):
        for g, handle in channel(nbytes, ctx.cpu + index).items():
            exits[g].append(handle)
    return ctx.join(exits)


# ---------------------------------------------------------------------------
# ring algorithms
# ---------------------------------------------------------------------------
def allreduce(ctx: CollectiveContext, size: int, cfg: NcclConfig, deps: Optional[DepMap] = None) -> DepMap:
    """NCCL allreduce of ``size`` total bytes.

    ``ring``: per channel, a chunked ring reduce-scatter followed by a ring
    allgather.  ``tree``: per channel, a chunked reduce up a binomial tree and
    broadcast back down (NCCL's tree algorithm for latency-bound sizes).
    The buffer is striped over ``cfg.effective_channels(size)`` channels;
    emitted message sizes are wire bytes (payload scaled by the protocol's
    efficiency).  Returns the exit handle per global rank.
    """
    if cfg.algorithm == "ring":
        return _ring_collective(ctx, size, cfg, deps, reduce_pass=True, gather_pass=True)

    def tree(channel_bytes: int, stream: int) -> DepMap:
        # one channel: binomial reduce to rank 0, then broadcast back down
        sub = ctx.sub_context(range(ctx.size), cpu=stream)
        wire = cfg.wire_size(channel_bytes)
        mid = _mpi.binomial_reduce(sub, wire, root=0, deps=deps)
        return _mpi.binomial_bcast(sub, wire, root=0, deps=mid)

    return _striped(ctx, size, cfg, deps, tree)


def reduce_scatter(ctx: CollectiveContext, size: int, cfg: NcclConfig, deps: Optional[DepMap] = None) -> DepMap:
    """NCCL reduce-scatter (the reduce pass of the ring)."""
    return _ring_collective(ctx, size, cfg, deps, reduce_pass=True, gather_pass=False)


def allgather(ctx: CollectiveContext, size: int, cfg: NcclConfig, deps: Optional[DepMap] = None) -> DepMap:
    """NCCL allgather of ``size`` total bytes (the gather pass of the ring)."""
    return _ring_collective(ctx, size, cfg, deps, reduce_pass=False, gather_pass=True)


def _ring_collective(
    ctx: CollectiveContext,
    size: int,
    cfg: NcclConfig,
    deps: Optional[DepMap],
    reduce_pass: bool,
    gather_pass: bool,
) -> DepMap:
    n = ctx.size
    total_steps = (reduce_pass + gather_pass) * (n - 1)
    reduce_steps = n - 1 if reduce_pass else 0

    def channel(channel_bytes: int, stream: int) -> DepMap:
        base_tag = ctx.tags.next_base(total_steps * (cfg.max_chunks_per_step + 1))
        # one slice per ring position, each cut into its pipelined pieces
        pieces = [_pieces(b, cfg) for b in _mpi._chunk_sizes(channel_bytes, n)]
        wires = [[cfg.wire_size(p) for p in slice_pieces] for slice_pieces in pieces]
        # per-rank serialisation point on this channel (one SM executes in order)
        last = ctx.entry(deps)
        for step in range(total_steps):
            price = step < reduce_steps and ctx.reduce_ns_per_byte
            tag_step = base_tag + step * (cfg.max_chunks_per_step + 1)
            for r in range(n):
                rb = ctx.rank_builder(r)
                dst = ctx.ranks[(r + 1) % n]
                src = ctx.ranks[(r - 1) % n]
                sends = wires[(r - step) % n]
                recv_slice = (r - step - 1) % n
                recvs = wires[recv_slice]
                tail = last[r]
                for p in range(max(len(sends), len(recvs))):
                    reqs = () if tail is None else (tail,)
                    if p < len(sends) and p < len(recvs):
                        tail = rb.sendrecv(sends[p], dst, recvs[p], src, tag_step + p, stream, reqs)
                    elif p < len(sends):
                        tail = rb.send(sends[p], dst, tag_step + p, stream, reqs)
                    else:
                        tail = rb.recv(recvs[p], src, tag_step + p, stream, reqs)
                    if price and p < len(recvs):
                        tail = rb.calc(ctx.reduce_cost(pieces[recv_slice][p]), stream, (tail,))
                last[r] = tail
        return ctx.exits(last)

    return _striped(ctx, size, cfg, deps, channel)


def broadcast(ctx: CollectiveContext, size: int, cfg: NcclConfig, root: int = 0, deps: Optional[DepMap] = None) -> DepMap:
    """NCCL ring broadcast: the root pushes chunks around the ring (Fig. 4).

    The buffer is striped over channels; within each channel it is cut into
    protocol-sized chunks that travel the ring back to back, each intermediate
    rank forwarding a chunk as soon as it has received it.
    """
    n = ctx.size
    order = [(root + i) % n for i in range(n)]  # ring order starting from the root

    def channel(channel_bytes: int, stream: int) -> DepMap:
        sub = ctx.sub_context(range(n), cpu=stream)
        chunk = cfg.effective_chunk_bytes()
        nchunks = min(max(1, (channel_bytes + chunk - 1) // chunk), cfg.max_chunks_per_step * n)
        tag = sub.tags.next_base(nchunks)
        last = sub.entry(deps)
        for c, chunk_bytes in enumerate(_mpi._chunk_sizes(channel_bytes, nchunks)):
            for src, dst in zip(order, order[1:]):
                sub.transfer(last, src, dst, cfg.wire_size(chunk_bytes), tag + c)
        return sub.exits(last)

    return _striped(ctx, size, cfg, deps, channel)


# ---------------------------------------------------------------------------
# alltoall (expert parallelism)
# ---------------------------------------------------------------------------
def alltoall(ctx: CollectiveContext, size_per_pair: int, cfg: NcclConfig, deps: Optional[DepMap] = None) -> DepMap:
    """All-to-all implemented as pairwise ncclSend/ncclRecv (expert parallelism).

    The pairwise shift schedule of :func:`repro.collectives.mpi.pairwise_alltoall`
    on the context's stream, every message sized in wire bytes.
    """
    return _mpi.pairwise_alltoall(ctx, cfg.wire_size(size_per_pair), deps)
