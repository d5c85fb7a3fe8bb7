"""Unit tests for the GoalBuilder / RankBuilder fluent API."""
import pytest

from repro.goal import GoalBuilder, OpType


class TestRankBuilder:
    def test_handles_are_sequential(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        assert r.calc(1) == 0
        assert r.calc(1) == 1
        assert r.last() == 1

    def test_last_on_empty_rank(self):
        b = GoalBuilder(2)
        assert b.rank(1).last() is None

    def test_requires_accepts_any_iterable(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a = r.calc(1)
        c = r.calc(1)
        d = r.calc(1, requires=[c, a, c])
        e = r.dummy(requires={a, d})
        f = r.calc(1, requires=(v for v in (c, e)))
        preds = b.build().ranks[0].preds
        assert preds[d] == [a, c] and preds[e] == [a, d] and preds[f] == [c, e]

    def test_join_creates_dummy(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a, c = r.calc(1), r.calc(2)
        j = r.join([a, c])
        op = b.build().ranks[0].ops[j]
        assert op.is_dummy
        assert sorted(b.build().ranks[0].preds[j]) == [a, c]

    def test_fork_creates_dependent_dummies(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a = r.calc(1)
        forks = r.fork(a, 3)
        sched = b.build()
        assert len(forks) == 3
        for f in forks:
            assert sched.ranks[0].preds[f] == [a]

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
