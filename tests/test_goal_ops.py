"""Unit tests for the GOAL op (vertex) type."""
import pytest

from repro.goal import Op, OpType, parse_goal


class TestConstruction:
    def test_send_constructor(self):
        op = Op.send(1024, dst=3, tag=7, cpu=1)
        assert op.kind == OpType.SEND
        assert op.size == 1024
        assert op.peer == 3
        assert op.tag == 7
        assert op.cpu == 1

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
        # a dummy vertex (a join point) is a calc of size 0
        op = Op.calc(0)
        assert op.is_calc and op.size == 0 and op.peer is None
        assert op == Op(OpType.CALC, 0)

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
        send, recv, calc = Op.send(1, dst=0), Op.recv(1, src=0), Op.calc(1)
        assert not send.is_recv and not send.is_calc
        assert not recv.is_send and not recv.is_calc
        assert not calc.is_send and not calc.is_recv

    def test_is_send_recv_calc(self):
        assert Op.send(1, dst=0).is_send
        assert Op.recv(1, src=0).is_recv
        assert Op.calc(1).is_calc

    def test_nonzero_calc_is_not_dummy(self):
        op = Op.calc(5)
        assert op.size == 5 and op != Op.calc(0)

    def test_short_names(self):
        assert OpType.SEND.short() == "send"
        assert OpType.RECV.short() == "recv"
        assert OpType.CALC.short() == "calc"


class TestEqualityAndCopy:
    def test_equality_ignores_label(self):
        # a label names a vertex only inside its text block; the op has none
        def first(label):
            text = f"rank 0 {{\n {label}: send 8b to 1 tag 2\n}}\nrank 1 {{\n}}\n"
            return parse_goal(text).ranks[0].ops[0]

        assert first("a") == first("b") == Op.send(8, dst=1, tag=2)

    def test_inequality_on_size(self):
        assert Op.calc(1) != Op.calc(2)

    def test_hash_consistent_with_eq(self):
        a, b = Op.recv(8, src=2), Op.recv(8, src=2)
        assert hash(a) == hash(b)

    def test_fields_are_read_only(self):
        op = Op.send(10, dst=1, tag=3, cpu=2)
        with pytest.raises(AttributeError, match="immutable"):
            op.peer = 5
        assert op.peer == 1 and op == Op.send(10, dst=1, tag=3, cpu=2)

    def test_repr_mentions_kind(self):
        assert "send" in repr(Op.send(10, dst=1))
        assert "calc" in repr(Op.calc(10))
        assert "recv" in repr(Op.recv(10, src=1))

    def test_eq_other_type_not_implemented(self):
        assert Op.calc(1) != "calc"
