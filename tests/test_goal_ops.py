"""Unit tests for the GOAL op (vertex) type."""
import pytest

from repro.goal import Op, OpType


class TestConstruction:
    def test_send_constructor(self):
        op = Op.send(1024, dst=3, tag=7, cpu=1, label="s")
        assert op.kind == OpType.SEND
        assert op.size == 1024
        assert op.peer == 3
        assert op.tag == 7
        assert op.cpu == 1
        assert op.label == "s"

    def test_recv_constructor(self):
        op = Op.recv(64, src=0)
        assert op.kind == OpType.RECV
        assert op.peer == 0
        assert op.tag == 0

    def test_calc_constructor(self):
        op = Op.calc(500)
        assert op.kind == OpType.CALC
        assert op.peer is None

    def test_dummy_is_zero_cost_calc(self):
        op = Op.dummy()
        assert op.is_calc and op.is_dummy and op.size == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Op.calc(-1)

    def test_send_requires_peer(self):
        with pytest.raises(ValueError):
            Op(OpType.SEND, 10)

    def test_negative_peer_rejected(self):
        with pytest.raises(ValueError):
            Op.send(10, dst=-1)

    def test_calc_must_not_have_peer(self):
        with pytest.raises(ValueError):
            Op(OpType.CALC, 10, peer=1)

    def test_negative_tag_rejected(self):
        with pytest.raises(ValueError):
            Op.send(10, dst=1, tag=-1)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            Op.calc(10, cpu=-2)


class TestPredicates:
    def test_comm_predicates(self):
        assert Op.send(1, dst=0).is_comm
        assert Op.recv(1, src=0).is_comm
        assert not Op.calc(1).is_comm

    def test_is_send_recv_calc(self):
        assert Op.send(1, dst=0).is_send
        assert Op.recv(1, src=0).is_recv
        assert Op.calc(1).is_calc

    def test_nonzero_calc_is_not_dummy(self):
        assert not Op.calc(5).is_dummy

    def test_short_names(self):
        assert OpType.SEND.short() == "send"
        assert OpType.RECV.short() == "recv"
        assert OpType.CALC.short() == "calc"


class TestEqualityAndCopy:
    def test_equality_ignores_label(self):
        assert Op.send(8, dst=1, tag=2, label="a") == Op.send(8, dst=1, tag=2, label="b")

    def test_inequality_on_size(self):
        assert Op.calc(1) != Op.calc(2)

    def test_hash_consistent_with_eq(self):
        a, b = Op.recv(8, src=2), Op.recv(8, src=2)
        assert hash(a) == hash(b)

    def test_fields_are_read_only(self):
        op = Op.send(10, dst=1, tag=3, cpu=2, label="x")
        with pytest.raises(AttributeError, match="immutable"):
            op.peer = 5
        assert op.peer == 1 and op == Op.send(10, dst=1, tag=3, cpu=2)

    def test_repr_mentions_kind(self):
        assert "send" in repr(Op.send(10, dst=1))
        assert "calc" in repr(Op.calc(10))
        assert "recv" in repr(Op.recv(10, src=1))

    def test_eq_other_type_not_implemented(self):
        assert Op.calc(1) != "calc"
