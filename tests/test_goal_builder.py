"""Unit tests for the GoalBuilder / RankBuilder fluent API."""
import pytest

from repro.goal import GoalBuilder, Op, OpType


class TestRankBuilder:
    def test_handles_are_sequential(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        assert r.calc(1) == 0
        assert r.calc(1) == 1
        assert len(r) == 2

    def test_requires_accepts_any_iterable(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a = r.calc(1)
        c = r.calc(1)
        d = r.calc(1, requires=[c, a, c])
        e = r.join({a, d})
        f = r.calc(1, requires=(v for v in (c, e)))
        preds = b.build().ranks[0].preds
        assert preds[d] == [a, c] and preds[e] == [a, d] and preds[f] == [c, e]

    def test_join_creates_dummy(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a, c = r.calc(1), r.calc(2)
        j = r.join([a, c])
        assert b.build().ranks[0].ops[j] == Op.calc(0)
        assert sorted(b.build().ranks[0].preds[j]) == [a, c]

    def test_fork_creates_dependent_dummies(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a = r.calc(1)
        forks = [r.join([a]) for _ in range(3)]
        sched = b.build()
        assert forks == [1, 2, 3]
        for f in forks:
            assert sched.ranks[0].preds[f] == [a]
            assert sched.ranks[0].ops[f] == Op.calc(0)

    def test_send_recv_fields(self):
        b = GoalBuilder(2)
        s = b.rank(0).send(64, dst=1, tag=9, cpu=2)
        r = b.rank(1).recv(64, src=0, tag=9)
        sched = b.build()
        sop = sched.ranks[0].ops[s]
        rop = sched.ranks[1].ops[r]
        assert sop.kind == OpType.SEND and sop.peer == 1 and sop.tag == 9 and sop.cpu == 2
        assert rop.kind == OpType.RECV and rop.peer == 0

    def test_rank_property(self):
        b = GoalBuilder(3)
        assert b.rank(2).rank == 2

    def test_len_tracks_ops(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        r.calc(1)
        r.calc(1)
        assert len(r) == 2


def _rank_state(rank):
    columns = (rank.kind, rank.size, rank.peer, rank.tag, rank.cpu, rank.pred_ptr, rank.pred_idx)
    return [column.tolist() for column in columns]


def _lead(rank_builder):
    """Two calcs, the second on the first: something for ``requires`` to name."""
    first = rank_builder.calc(5)
    return first, rank_builder.calc(3, requires=(first,))


class TestSendrecv:
    @pytest.mark.parametrize(
        "requires", [(), (1,), (0, 1), [1, 0, 1]], ids=["none", "one", "two", "list-unsorted"]
    )
    def test_is_send_recv_and_their_join(self, requires):
        fused, separate = GoalBuilder(1), GoalBuilder(1)
        _lead(fused.rank(0))
        _lead(separate.rank(0))
        join = fused.rank(0).sendrecv(64, 3, 32, 2, tag=9, cpu=1, requires=requires)
        rb = separate.rank(0)
        send = rb.send(64, dst=3, tag=9, cpu=1, requires=requires)
        recv = rb.recv(32, src=2, tag=9, cpu=1, requires=requires)
        assert join == rb.join((send, recv), cpu=1) == 4
        a, b = fused.build().ranks[0], separate.build().ranks[0]
        assert _rank_state(a) == _rank_state(b)
        assert [list(column) for column in a.succ_csr()] == [list(column) for column in b.succ_csr()]

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ({"dst": None}, ValueError, "send requires a peer rank"),
            ({"src": None}, ValueError, "recv requires a peer rank"),
            ({"send_bytes": -1}, ValueError, "op size must be non-negative, got -1"),
            ({"recv_bytes": 2**64}, ValueError, "op size 18446744073709551616 does not fit 64 bits"),
            ({"dst": -2}, ValueError, "peer rank must be non-negative, got -2"),
            ({"tag": 2**64}, ValueError, "tag 18446744073709551616 does not fit 64 bits"),
            ({"cpu": 1.5}, TypeError, "cpu \\(compute stream\\) must be an integer, got 1.5"),
            ({"requires": (2,)}, ValueError, "dependency 2 of new vertex 2 is out of range"),
            ({"requires": (-1,)}, ValueError, "dependency -1 of new vertex 2 is out of range"),
            ({"requires": (0, 7)}, ValueError, "dependency 7 of new vertex 2 is out of range"),
        ],
        ids=[
            "no-dst", "no-src", "negative-send", "huge-recv", "negative-peer", "huge-tag",
            "float-cpu", "forward", "negative-dep", "forward-of-two",
        ],
    )
    def test_a_bad_field_fails_at_the_call_and_changes_nothing(self, args, error, message):
        b = GoalBuilder(1)
        rb = b.rank(0)
        _lead(rb)
        rank = b.build().ranks[0]
        before = _rank_state(rank)
        call = {"send_bytes": 8, "dst": 1, "recv_bytes": 8, "src": 1, "tag": 0, "cpu": 0, "requires": (1,)}
        with pytest.raises(error, match=message):
            rb.sendrecv(**{**call, **args})
        assert _rank_state(rank) == before
        # the rank still takes the next round, right after the two calcs
        assert rb.sendrecv(**call) == 4
        assert rank.preds[2] == rank.preds[3] == [1] and rank.preds[4] == [2, 3]


class TestGoalBuilder:
    def test_num_ranks(self):
        assert GoalBuilder(5).num_ranks == 5

    def test_ranks_returns_all_builders(self):
        b = GoalBuilder(3)
        assert [rb.rank for rb in b.ranks()] == [0, 1, 2]

    def test_build_returns_same_schedule(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1)
        s1 = b.build()
        b.rank(0).calc(2)
        s2 = b.build()
        assert s1 is s2
        assert s2.num_ops() == 2

    def test_name_propagates(self):
        assert GoalBuilder(1, name="xyz").build().name == "xyz"
