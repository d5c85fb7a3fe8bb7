"""Tests for the NCCL-style collective decompositions."""
import pytest

from repro.collectives import CollectiveContext, TagAllocator
from repro.collectives import nccl as cnccl
from repro.goal import GoalBuilder, validate_schedule
from repro.goal.ops import OpType
from repro.scheduler import simulate


def _ctx(n, **kwargs):
    b = GoalBuilder(n)
    return b, CollectiveContext(b, list(range(n)), **kwargs)


class TestNcclConfig:
    def test_defaults(self):
        cfg = cnccl.NcclConfig()
        assert cfg.algorithm == "ring" and cfg.protocol == "Simple"

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            cnccl.NcclConfig(algorithm="butterfly")

    def test_invalid_protocol(self):
        with pytest.raises(ValueError):
            cnccl.NcclConfig(protocol="LL256")

    def test_protocol_chunk_defaults(self):
        assert cnccl.NcclConfig(protocol="LL").effective_chunk_bytes() < cnccl.NcclConfig(
            protocol="Simple"
        ).effective_chunk_bytes()

    def test_ll_wire_overhead(self):
        cfg = cnccl.NcclConfig(protocol="LL")
        assert cfg.wire_size(1000) == 2000

    def test_explicit_chunk_size(self):
        assert cnccl.NcclConfig(chunk_bytes=1234).effective_chunk_bytes() == 1234


class TestRingAllreduce:
    def test_channels_map_to_streams(self):
        b, ctx = _ctx(4)
        cfg = cnccl.NcclConfig(nchannels=3)
        cnccl.allreduce(ctx, 3 << 20, cfg)
        streams = set()
        for rank in b.build().ranks:
            streams.update(rank.compute_streams())
        assert {0, 1, 2}.issubset(streams)

    def test_chunking_increases_message_count(self):
        b1, ctx1 = _ctx(4)
        cnccl.allreduce(ctx1, 4 << 20, cnccl.NcclConfig(nchannels=1, chunk_bytes=1 << 20))
        coarse = b1.build().op_counts()["send"]
        b2, ctx2 = _ctx(4)
        cnccl.allreduce(ctx2, 4 << 20, cnccl.NcclConfig(nchannels=1, chunk_bytes=1 << 18))
        fine = b2.build().op_counts()["send"]
        assert fine > coarse

    def test_chunk_cap_respected(self):
        b, ctx = _ctx(2)
        cfg = cnccl.NcclConfig(nchannels=1, chunk_bytes=1024, max_chunks_per_step=4)
        cnccl.allreduce(ctx, 1 << 22, cfg)
        # 2 ranks, 2 steps, at most 4 chunks per step per rank
        assert b.build().op_counts()["send"] <= 2 * 2 * 4

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_completes_on_lgs(self, n):
        b, ctx = _ctx(n, reduce_ns_per_byte=0.001)
        cnccl.allreduce(ctx, 1 << 20, cnccl.NcclConfig())
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_tree_algorithm_completes(self):
        b, ctx = _ctx(8)
        cnccl.allreduce(ctx, 1 << 20, cnccl.NcclConfig(algorithm="tree"))
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_single_rank_noop(self):
        b, ctx = _ctx(1)
        assert cnccl.allreduce(ctx, 1024, cnccl.NcclConfig()) == {}


class TestBroadcastAndOthers:
    def test_broadcast_chunks_travel_ring(self):
        # Fig. 4: a 2 MB broadcast over 4 ranks with 0.5 MB chunks -> each rank
        # forwards 4 chunks, the last rank only receives.
        b, ctx = _ctx(4)
        cfg = cnccl.NcclConfig(nchannels=1, chunk_bytes=1 << 19)
        cnccl.broadcast(ctx, 2 << 20, cfg, root=0)
        sched = b.build()
        counts = sched.op_counts()
        assert counts["send"] == 4 * 3  # 4 chunks forwarded over 3 ring hops
        assert sched.ranks[0].total_bytes_received() == 0
        validate_schedule(sched)

    def test_broadcast_nonzero_root(self):
        b, ctx = _ctx(4)
        cnccl.broadcast(ctx, 1 << 20, cnccl.NcclConfig(), root=2)
        sched = b.build()
        assert sched.ranks[2].total_bytes_received() == 0
        validate_schedule(sched)

    def test_allgather_and_reduce_scatter(self):
        for fn in (cnccl.allgather, cnccl.reduce_scatter):
            b, ctx = _ctx(4)
            fn(ctx, 1 << 20, cnccl.NcclConfig())
            sched = b.build()
            validate_schedule(sched)
            counts = sched.op_counts()
            assert counts["send"] == counts["recv"] > 0

    def test_alltoall_pairs(self):
        n = 4
        b, ctx = _ctx(n)
        cnccl.alltoall(ctx, 1 << 16, cnccl.NcclConfig())
        assert b.build().op_counts()["send"] == n * (n - 1)
        validate_schedule(b.build())

    def test_deps_are_respected(self):
        b, ctx = _ctx(2)
        first = {0: b.rank(0).calc(100), 1: b.rank(1).calc(100)}
        cfg = cnccl.NcclConfig(nchannels=1)
        cnccl.allreduce(ctx, 1 << 16, cfg, deps=first)
        sched = b.build()
        # every comm op of rank 0 must (transitively) depend on the first calc
        roots = sched.ranks[0].roots()
        assert roots == [0]


class TestChunkingEdgeCases:
    """Regressions for degenerate NcclConfig chunking (zero-byte, size < parts)."""

    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    def test_zero_byte_allreduce_is_valid_and_degenerate(self, algorithm):
        b, ctx = _ctx(4)
        cfg = cnccl.NcclConfig(algorithm=algorithm, nchannels=4)
        out = cnccl.allreduce(ctx, 0, cfg)
        sched = b.build()
        validate_schedule(sched)
        assert set(out) == set(range(4))
        # a single 1-byte control pipeline, not nchannels phantom channels
        streams = {op.cpu for rank in sched.ranks for op in rank.ops}
        assert streams == {0}
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_zero_byte_broadcast_and_reduce_scatter(self):
        for fn in (cnccl.broadcast, cnccl.reduce_scatter, cnccl.allgather):
            b, ctx = _ctx(5)
            fn(ctx, 0, cnccl.NcclConfig(nchannels=2))
            sched = b.build()
            validate_schedule(sched)
            assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_size_smaller_than_channel_count_uses_byte_count_channels(self):
        # 3 bytes over 8 channels: only 3 channels (streams) may carry data
        b, ctx = _ctx(4)
        cnccl.allreduce(ctx, 3, cnccl.NcclConfig(nchannels=8))
        sched = b.build()
        validate_schedule(sched)
        streams = {op.cpu for rank in sched.ranks for op in rank.ops}
        assert streams == {0, 1, 2}
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_size_smaller_than_ring_slices_is_valid(self):
        # 3 bytes over 5 ring positions: empty slices become 1-byte controls
        b, ctx = _ctx(5)
        cnccl.allreduce(ctx, 3, cnccl.NcclConfig(nchannels=1))
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_effective_channels(self):
        cfg = cnccl.NcclConfig(nchannels=4)
        assert cfg.effective_channels(0) == 1
        assert cfg.effective_channels(3) == 3
        assert cfg.effective_channels(4) == 4
        assert cfg.effective_channels(1 << 20) == 4

    def test_nonpositive_chunk_bytes_rejected(self):
        with pytest.raises(ValueError, match="chunk_bytes"):
            cnccl.NcclConfig(chunk_bytes=0)
        with pytest.raises(ValueError, match="chunk_bytes"):
            cnccl.NcclConfig(chunk_bytes=-4)


class TestTagSpans:
    """A collective instance reserves every tag it uses, past one stride too."""

    def test_ring_beyond_one_stride_never_reuses_a_tag(self):
        # 2 * 63 ring steps of 41 tag slots run past the 4096-tag stride:
        # channel 0's late steps must not land on channel 1's tags
        b, ctx = _ctx(64)
        cnccl.allreduce(ctx, 64 << 20, cnccl.NcclConfig(protocol="LL", max_chunks_per_step=40))
        for rank in b.build().ranks:
            sends = [(c, p, t) for k, c, p, t in zip(rank.kind, rank.cpu, rank.peer, rank.tag) if k == OpType.SEND]
            channel0 = [t for c, _, t in sends if c == 0]
            assert max(channel0) - min(channel0) >= 4096
            assert len({(p, t) for _, p, t in sends}) == len(sends)

    def test_span_within_one_stride_costs_one_stride(self):
        tags = TagAllocator()
        assert [tags.next_base(span) for span in (1, 4096, 4097, 1, 8193, 0)] == [
            1, 4097, 8193, 16385, 20481, 32769,
        ]
