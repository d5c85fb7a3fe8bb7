"""Unit tests for RankSchedule / GoalSchedule."""
import pytest

from repro.goal import GoalParseError, GoalSchedule, Op, parse_goal
from repro.goal.schedule import RankSchedule


class TestRankSchedule:
    def test_add_op_returns_indices_in_order(self):
        rank = RankSchedule(0)
        assert rank.add_op(Op.calc(1)) == 0
        assert rank.add_op(Op.calc(2)) == 1

    def test_dependencies_must_reference_earlier_vertices(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1))
        with pytest.raises(ValueError):
            rank.add_op(Op.calc(2), requires=[5])

    def test_self_dependency_rejected(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1))
        with pytest.raises(ValueError, match="dependency 1 of new vertex 1"):
            rank.add_op(Op.calc(2), requires=[0, 1])
        assert len(rank) == 1 and rank.preds == [[]]

    def test_duplicate_label_rejected(self):
        # labels live in a text block, which refuses to name two vertices alike
        with pytest.raises(GoalParseError, match="duplicate label 'a' in rank 0"):
            parse_goal("rank 0 {\n a: calc 1\n a: calc 2\n}")
        rank = parse_goal("rank 0 {\n a: calc 1\n}\nrank 1 {\n a: calc 2\n}").ranks
        assert rank[0].ops == [Op.calc(1)] and rank[1].ops == [Op.calc(2)]

    def test_successors_and_in_degrees(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(1))
        b = rank.add_op(Op.calc(1), requires=[a])
        c = rank.add_op(Op.calc(1), requires=[a, b])
        assert rank.successors()[a] == [b, c]
        assert rank.in_degrees() == [0, 1, 2]

    def test_roots_and_leaves(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(1))
        b = rank.add_op(Op.calc(1))
        c = rank.add_op(Op.calc(1), requires=[a, b])
        assert rank.roots() == [a, b]
        assert rank.leaves() == [c]

    def test_totals(self):
        rank = RankSchedule(0)
        rank.add_op(Op.send(100, dst=1))
        rank.add_op(Op.recv(40, src=1))
        rank.add_op(Op.calc(7))
        assert rank.total_bytes_sent() == 100
        assert rank.total_bytes_received() == 40
        assert rank.total_calc_ns() == 7

    def test_compute_streams(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1, cpu=0))
        rank.add_op(Op.calc(1, cpu=3))
        assert rank.compute_streams() == [0, 3]

    def test_critical_path_chain(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(10))
        b = rank.add_op(Op.calc(20), requires=[a])
        rank.add_op(Op.calc(5))  # independent
        assert rank.critical_path_ns() == 30

    def test_critical_path_ignores_comm(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(10))
        s = rank.add_op(Op.send(1000, dst=1), requires=[a])
        rank.add_op(Op.calc(10), requires=[s])
        assert rank.critical_path_ns() == 20

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            RankSchedule(-1)

    def test_append_invalidates_successor_cache(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(1))
        assert rank.successors()[a] == []
        b = rank.add_op(Op.calc(1), requires=[a])
        assert rank.successors()[a] == [b]
        c = rank.extend([2], [1], [0], [0], [0], [0, 0], [])
        assert rank.successors() == [[b], [], []] and rank.leaves() == [b, c]


class TestGoalSchedule:
    def _simple(self) -> GoalSchedule:
        sched = GoalSchedule(2, name="t")
        sched.ranks[0].add_op(Op.calc(5))
        sched.ranks[0].add_op(Op.send(100, dst=1), requires=[0])
        sched.ranks[1].add_op(Op.recv(100, src=0))
        return sched

    def test_num_ranks_positive(self):
        with pytest.raises(ValueError):
            GoalSchedule(0)

    def test_counts(self):
        sched = self._simple()
        assert sched.num_ops() == 3
        assert sched.num_edges() == 1
        assert sched.total_bytes() == 100
        assert sched.total_calc_ns() == 5

    def test_op_counts(self):
        counts = self._simple().op_counts()
        assert counts == {"send": 1, "recv": 1, "calc": 1}

    def test_summary_keys(self):
        summary = self._simple().summary()
        for key in ("name", "num_ranks", "num_ops", "sends", "recvs", "calcs", "total_bytes"):
            assert key in summary

    def test_indexing_and_iteration(self):
        sched = self._simple()
        assert sched[0] is sched.ranks[0]
        assert len(list(sched)) == 2
        assert len(sched) == 2
