"""Tests for the compact binary GOAL codec (including property-based roundtrips)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.goal import GoalBuilder, decode_goal, encode_goal, parse_goal, read_goal, write_goal
from repro.goal.binary import GoalBinaryError, write_goal_binary
from repro.goal.ops import Op, OpType
from repro.goal.schedule import GoalSchedule


def _sample_schedule() -> GoalSchedule:
    b = GoalBuilder(3, name="binary-sample")
    r0 = b.rank(0)
    c = r0.calc(1000)
    s = r0.send(1 << 20, dst=1, tag=17, cpu=3, requires=[c])
    r0.recv(256, src=2, tag=1, requires=[c, s])
    b.rank(1).recv(1 << 20, src=0, tag=17)
    b.rank(2).send(256, dst=0, tag=1)
    return b.build()


class TestRoundTrip:
    def test_roundtrip_structure(self):
        original = _sample_schedule()
        decoded = decode_goal(encode_goal(original))
        assert decoded.name == original.name
        assert decoded.num_ranks == original.num_ranks
        for r in range(original.num_ranks):
            assert decoded.ranks[r].preds == original.ranks[r].preds
            for a, b_ in zip(original.ranks[r].ops, decoded.ranks[r].ops):
                assert a == b_

    def test_binary_smaller_than_text(self):
        sched = _sample_schedule()
        assert len(encode_goal(sched)) < len(write_goal(sched).encode())

    def test_file_helpers(self, tmp_path):
        sched = _sample_schedule()
        path = str(tmp_path / "s.goalbin")
        nbytes = write_goal_binary(sched, path)
        assert nbytes == len(encode_goal(sched))
        loaded = read_goal(path)
        assert encode_goal(loaded) == encode_goal(sched)

    def test_labels_are_dropped(self):
        parsed = parse_goal("rank 0 {\n will-disappear: calc 1\n}")
        decoded = decode_goal(encode_goal(parsed))
        assert decoded.ranks[0].ops == parsed.ranks[0].ops == [Op.calc(1)]
        assert "will-disappear" not in write_goal(decoded)
        assert write_goal(decoded) == write_goal(parsed)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(GoalBinaryError):
            decode_goal(b"NOPE" + bytes(10))

    def test_bad_version(self):
        blob = bytearray(encode_goal(_sample_schedule()))
        blob[4] = 99
        with pytest.raises(GoalBinaryError):
            decode_goal(bytes(blob))

    def test_truncated_blob(self):
        blob = encode_goal(_sample_schedule())
        with pytest.raises(GoalBinaryError):
            decode_goal(blob[: len(blob) // 2])

    def test_trailing_garbage(self):
        blob = encode_goal(_sample_schedule())
        with pytest.raises(GoalBinaryError):
            decode_goal(blob + b"\x00")

    def test_empty_input(self):
        with pytest.raises(GoalBinaryError):
            decode_goal(b"")


# ---------------------------------------------------------------------------
# property-based roundtrip
# ---------------------------------------------------------------------------
@st.composite
def schedules(draw):
    num_ranks = draw(st.integers(min_value=1, max_value=4))
    sched = GoalSchedule(num_ranks, name=draw(st.text(max_size=8)))
    for rank in sched.ranks:
        n_ops = draw(st.integers(min_value=0, max_value=12))
        for i in range(n_ops):
            kind = draw(st.sampled_from([OpType.SEND, OpType.RECV, OpType.CALC]))
            size = draw(st.integers(min_value=0, max_value=1 << 30))
            cpu = draw(st.integers(min_value=0, max_value=5))
            tag = draw(st.integers(min_value=0, max_value=1 << 20))
            if kind == OpType.CALC:
                op = Op.calc(size, cpu=cpu)
            else:
                peer = draw(st.integers(min_value=0, max_value=num_ranks))
                op = Op(kind, max(size, 0), peer=peer, tag=tag, cpu=cpu)
            deps = []
            if i > 0:
                deps = draw(st.lists(st.integers(min_value=0, max_value=i - 1), max_size=3, unique=True))
            rank.add_op(op, deps)
    return sched


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_encode_decode_identity(self, sched):
        decoded = decode_goal(encode_goal(sched))
        assert decoded.num_ranks == sched.num_ranks
        assert decoded.num_ops() == sched.num_ops()
        for r in range(sched.num_ranks):
            assert decoded.ranks[r].preds == sched.ranks[r].preds
            for a, b in zip(sched.ranks[r].ops, decoded.ranks[r].ops):
                assert a == b

    @settings(max_examples=30, deadline=None)
    @given(schedules())
    def test_encoding_is_deterministic(self, sched):
        assert encode_goal(sched) == encode_goal(sched)
