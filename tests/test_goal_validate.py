"""Tests for GOAL schedule validation."""
from array import array

import pytest

from repro.goal import GoalBuilder, GoalValidationError, validate_schedule
from repro.goal.ops import Op
from repro.goal.schedule import GoalSchedule


def _valid_pair() -> GoalSchedule:
    b = GoalBuilder(2)
    b.rank(0).send(10, dst=1, tag=1)
    b.rank(1).recv(10, src=0, tag=1)
    return b.build()


class TestValid:
    def test_valid_schedule_passes(self):
        validate_schedule(_valid_pair())

    def test_multiple_messages_same_channel(self):
        b = GoalBuilder(2)
        for _ in range(3):
            b.rank(0).send(10, dst=1, tag=1)
            b.rank(1).recv(10, src=0, tag=1)
        validate_schedule(b.build())

    def test_calc_only_schedule(self):
        b = GoalBuilder(1)
        b.rank(0).calc(5)
        validate_schedule(b.build())


class TestInvalid:
    def test_peer_out_of_range(self):
        sched = GoalSchedule(2)
        sched.ranks[0].add_op(Op.send(10, dst=5))
        with pytest.raises(GoalValidationError):
            validate_schedule(sched, check_matching=False)

    def test_self_message_rejected(self):
        sched = GoalSchedule(2)
        sched.ranks[0].add_op(Op.send(10, dst=0))
        with pytest.raises(GoalValidationError):
            validate_schedule(sched, check_matching=False)

    def test_missing_recv_detected(self):
        b = GoalBuilder(2)
        b.rank(0).send(10, dst=1, tag=1)
        with pytest.raises(GoalValidationError) as exc:
            validate_schedule(b.build())
        assert "sends" in str(exc.value)

    def test_missing_send_detected(self):
        b = GoalBuilder(2)
        b.rank(1).recv(10, src=0, tag=1)
        with pytest.raises(GoalValidationError):
            validate_schedule(b.build())

    def test_size_mismatch_detected(self):
        b = GoalBuilder(2)
        b.rank(0).send(10, dst=1, tag=1)
        b.rank(1).recv(20, src=0, tag=1)
        with pytest.raises(GoalValidationError) as exc:
            validate_schedule(b.build())
        assert "sizes" in str(exc.value)

    def test_tag_mismatch_detected(self):
        b = GoalBuilder(2)
        b.rank(0).send(10, dst=1, tag=1)
        b.rank(1).recv(10, src=0, tag=2)
        with pytest.raises(GoalValidationError):
            validate_schedule(b.build())

    def test_matching_can_be_skipped(self):
        b = GoalBuilder(2)
        b.rank(0).send(10, dst=1, tag=1)
        validate_schedule(b.build(), check_matching=False)

    def test_error_list_collected(self):
        b = GoalBuilder(3)
        b.rank(0).send(10, dst=1, tag=1)
        b.rank(0).send(10, dst=2, tag=1)
        with pytest.raises(GoalValidationError) as exc:
            validate_schedule(b.build())
        assert len(exc.value.errors) == 2

    def test_max_errors_cap(self):
        b = GoalBuilder(2)
        for tag in range(30):
            b.rank(0).send(10, dst=1, tag=tag)
        with pytest.raises(GoalValidationError) as exc:
            validate_schedule(b.build(), max_errors=5)
        assert len(exc.value.errors) <= 5

    def test_forward_dependency_detected(self):
        sched = GoalSchedule(1)
        sched.ranks[0].add_op(Op.calc(1))
        sched.ranks[0].add_op(Op.calc(1))
        # write a forward edge into the raw CSR, past every checked append
        sched.ranks[0].pred_ptr[1:] = array("q", [1, 1])
        sched.ranks[0].pred_idx.append(1)
        with pytest.raises(GoalValidationError):
            validate_schedule(sched, check_matching=False)
