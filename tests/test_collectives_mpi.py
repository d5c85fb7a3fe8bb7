"""Tests for the MPI collective decompositions (structure and invariants)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import COLLECTIVE_ALGORITHMS, CollectiveContext, contiguous_groups
from repro.collectives import mpi as calgs
from repro.goal import GoalBuilder, validate_schedule
from repro.scheduler import simulate


def _ctx(n, **kwargs):
    b = GoalBuilder(n)
    return b, CollectiveContext(b, list(range(n)), **kwargs)


def _counts(sched):
    return sched.op_counts()


class TestRingAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_message_count(self, n):
        b, ctx = _ctx(n)
        calgs.ring_allreduce(ctx, 1 << 20)
        counts = _counts(b.build())
        # 2*(n-1) steps, one send per rank per step
        assert counts["send"] == 2 * (n - 1) * n
        assert counts["recv"] == counts["send"]

    def test_total_bytes_close_to_theory(self):
        n, size = 4, 1 << 20
        b, ctx = _ctx(n)
        calgs.ring_allreduce(ctx, size)
        total = b.build().total_bytes()
        expected = 2 * (n - 1) * size  # each rank moves 2*size*(n-1)/n, times n ranks
        assert abs(total - expected) <= n * 2 * (n - 1)  # rounding of chunk splits

    def test_single_rank_is_noop(self):
        b, ctx = _ctx(1)
        out = calgs.ring_allreduce(ctx, 1024)
        assert out == {}
        assert b.build().num_ops() == 0

    def test_reduce_cost_inserted(self):
        b, ctx = _ctx(4, reduce_ns_per_byte=0.5)
        calgs.ring_allreduce(ctx, 1 << 16)
        assert b.build().total_calc_ns() > 0

    def test_validates_and_completes(self):
        b, ctx = _ctx(5)
        calgs.ring_allreduce(ctx, 1 << 18)
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()


class TestOtherAllreduces:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_recursive_doubling_completes(self, n):
        b, ctx = _ctx(n)
        calgs.recursive_doubling_allreduce(ctx, 1 << 16)
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_recursive_doubling_power_of_two_rounds(self):
        n = 8
        b, ctx = _ctx(n)
        calgs.recursive_doubling_allreduce(ctx, 4096)
        counts = _counts(b.build())
        assert counts["send"] == n * 3  # log2(8) rounds, one send per rank per round

    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_reduce_bcast_completes(self, n):
        b, ctx = _ctx(n)
        calgs.reduce_bcast_allreduce(ctx, 1 << 15)
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    @pytest.mark.parametrize("name", list(COLLECTIVE_ALGORITHMS["allreduce"]))
    def test_algorithms_exit_on_every_rank(self, name):
        b, ctx = _ctx(6, groups=contiguous_groups(6, 3))
        out = COLLECTIVE_ALGORITHMS["allreduce"][name].emit(ctx, 1 << 16)
        assert sorted(out) == list(range(6))


class TestRootedCollectives:
    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_bcast_message_count(self, root):
        n = 4
        b, ctx = _ctx(n)
        calgs.binomial_bcast(ctx, 4096, root=root)
        counts = _counts(b.build())
        assert counts["send"] == n - 1
        assert counts["recv"] == n - 1
        validate_schedule(b.build())

    def test_bcast_root_never_receives(self):
        b, ctx = _ctx(8)
        calgs.binomial_bcast(ctx, 4096, root=2)
        sched = b.build()
        assert sched.ranks[2].total_bytes_received() == 0

    def test_reduce_root_never_sends(self):
        b, ctx = _ctx(8)
        calgs.binomial_reduce(ctx, 4096, root=3)
        sched = b.build()
        assert sched.ranks[3].total_bytes_sent() == 0

    def test_gather_concentrates_on_root(self):
        n = 6
        b, ctx = _ctx(n)
        calgs.linear_gather(ctx, 1000, root=0)
        sched = b.build()
        assert sched.ranks[0].total_bytes_received() == (n - 1) * 1000

    def test_scatter_originates_at_root(self):
        n = 6
        b, ctx = _ctx(n)
        calgs.linear_scatter(ctx, 1000, root=0)
        sched = b.build()
        assert sched.ranks[0].total_bytes_sent() == (n - 1) * 1000


class TestOtherCollectives:
    def test_alltoall_message_count(self):
        n = 5
        b, ctx = _ctx(n)
        calgs.pairwise_alltoall(ctx, 2048)
        counts = _counts(b.build())
        assert counts["send"] == n * (n - 1)

    def test_barrier_uses_tiny_messages(self):
        b, ctx = _ctx(8)
        calgs.dissemination_barrier(ctx)
        sched = b.build()
        assert all(op.size == 1 for r in sched.ranks for op in r.ops if not op.is_calc)
        validate_schedule(sched)

    def test_barrier_round_count(self):
        n = 8
        b, ctx = _ctx(n)
        calgs.dissemination_barrier(ctx)
        assert _counts(b.build())["send"] == n * 3  # ceil(log2(8)) rounds

    def test_allgather_bytes(self):
        n, per_rank = 4, 1000
        b, ctx = _ctx(n)
        calgs.ring_allgather(ctx, per_rank * n)
        total = b.build().total_bytes()
        assert abs(total - (n - 1) * n * per_rank) <= 4 * n * n

    def test_chained_collectives_share_context(self):
        b, ctx = _ctx(4)
        d = calgs.ring_allreduce(ctx, 4096)
        d = calgs.binomial_bcast(ctx, 2048, deps=d)
        d = calgs.dissemination_barrier(ctx, deps=d)
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=9), size=st.integers(min_value=1, max_value=1 << 20))
    def test_ring_allreduce_always_valid_and_completes(self, n, size):
        b, ctx = _ctx(n)
        calgs.ring_allreduce(ctx, size)
        sched = b.build()
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=2, max_value=9), root=st.integers(min_value=0, max_value=8))
    def test_bcast_any_root_valid(self, n, root):
        b, ctx = _ctx(n)
        calgs.binomial_bcast(ctx, 1024, root=root % n)
        validate_schedule(b.build())
