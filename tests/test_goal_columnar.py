"""The columnar schedule against the object-list schedule it replaced.

``RankSchedule`` used to hold one ``Op`` object and one predecessor list per
vertex; it now holds one array per field and a CSR dependency index.  The old
representation is the oracle in ``tests/schedule_oracle.py``.  Here random
programs are built, transformed, merged and run through both codecs on both
representations, which must agree op for op, edge for edge and byte for byte;
the paper's workloads, text, binary and simulated, are rows of
``tests/differential.py``.  The read-only views, the checks where values enter
a schedule and the resident bytes per op are held here too.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.goal import (
    GoalSchedule,
    Op,
    OpType,
    concatenate_schedules,
    decode_goal,
    delay_schedule,
    encode_goal,
    parse_goal,
    remap_ranks,
    validate_schedule,
    write_goal,
)
from repro.goal.schedule import RankSchedule
from repro.schedgen import mpi_trace_to_goal
from schedule_oracle import (
    ListSchedule,
    list_delay_schedule,
    list_encode_goal,
    list_merge,
    list_remap_ranks,
    list_write_goal,
    to_oracle,
    views,
)

BIG = (1 << 63, (1 << 64) - 1)


def assert_same(columnar, oracle):
    assert views(columnar) == views(oracle)


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------
_values = st.one_of(st.integers(0, 300), st.sampled_from((0, 1, 127, 128, 1 << 32) + BIG))
_small = st.integers(0, 40)


@st.composite
def programs(draw, max_cpu=None, max_tag=None):
    """Construction steps for one schedule: ops with dependencies."""
    num_ranks = draw(st.integers(1, 4))
    steps, sizes = [], [0] * num_ranks
    for _ in range(draw(st.integers(0, 30))):
        rank = draw(st.integers(0, num_ranks - 1))
        n = sizes[rank]
        kind = draw(st.sampled_from(list(OpType)))
        peer = None if kind is OpType.CALC else draw(st.integers(0, num_ranks - 1))
        tag = draw(_values if max_tag is None else st.integers(0, max_tag))
        cpu = draw(_values if max_cpu is None else st.integers(0, max_cpu))
        # dependencies in any order, with repeats
        deps = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
        steps.append((rank, (kind, draw(_values), peer, 0 if peer is None else tag, cpu), deps))
        sizes[rank] += 1
    return num_ranks, steps


def build_both(program, name="prog"):
    num_ranks, steps = program
    columnar, oracle = GoalSchedule(num_ranks, name), ListSchedule(num_ranks, name)
    for rank, fields, deps in steps:
        a = columnar.ranks[rank].add_op(Op(*fields), deps)
        b = oracle.ranks[rank].add_op(Op(*fields), deps)
        assert a == b
    return columnar, oracle


class TestRandomPrograms:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_construction(self, program):
        columnar, oracle = build_both(program)
        assert_same(columnar, oracle)

    @settings(max_examples=100, deadline=None)
    @given(programs(), st.integers(0, 300))
    def test_builder_scalars_equal_ops(self, program, seed):
        num_ranks, steps = program
        by_ops, _ = build_both(program)
        by_scalars = GoalSchedule(num_ranks, "prog")
        for rank, (kind, size, peer, tag, cpu), deps in steps:
            by_scalars.ranks[rank].append_op(kind, size, peer, tag, cpu, np.array(deps, dtype=np.int64))
        assert_same(by_scalars, to_oracle(by_ops))

    @settings(max_examples=100, deadline=None)
    @given(programs(max_tag=1 << 63), st.data())
    def test_remap_delay(self, program, data):
        columnar, oracle = build_both(program)
        before = encode_goal(columnar)
        n = columnar.num_ranks
        targets = data.draw(st.permutations(range(n + 2)))[:n]
        mapping = dict(enumerate(targets))
        assert_same(remap_ranks(columnar, mapping, num_ranks=n + 2), list_remap_ranks(oracle, mapping, n + 2))
        delay = data.draw(st.sampled_from((0, 1, 12345) + BIG))
        assert_same(delay_schedule(columnar, delay), list_delay_schedule(oracle, delay))
        # a transform returns a new schedule and leaves its input alone
        assert encode_goal(columnar) == before
        assert_same(columnar, oracle)

    @settings(max_examples=100, deadline=None)
    @given(programs(max_cpu=63, max_tag=1 << 20), programs(max_cpu=63, max_tag=1 << 20), st.data())
    def test_merges(self, first, second, data):
        pairs = [build_both(first, "a"), build_both(second, "b")]
        arrivals = [data.draw(st.integers(0, 50)), data.draw(st.integers(0, 50))]
        columnar = [delay_schedule(c, a) for (c, _), a in zip(pairs, arrivals)]
        oracle = [list_delay_schedule(o, a) for (_, o), a in zip(pairs, arrivals)]
        total = columnar[0].num_ranks + columnar[1].num_ranks
        disjoint = [
            {r: r for r in range(columnar[0].num_ranks)},
            {r: columnar[0].num_ranks + r for r in range(columnar[1].num_ranks)},
        ]
        assert_same(
            concatenate_schedules(columnar, disjoint, total, "m"),
            list_merge(oracle, disjoint, total, "m"),
        )
        shared = [
            {r: data.draw(st.integers(0, 2)) for r in range(s.num_ranks)} for s in columnar
        ]
        for mapping in shared:  # injective within a tenant
            for r, node in zip(mapping, data.draw(st.permutations(range(4)))):
                mapping[r] = node
        assert_same(
            concatenate_schedules(columnar, shared, 4, "m"),
            list_merge(oracle, shared, 4, "m"),
        )

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_codecs(self, program):
        columnar, oracle = build_both(program)
        blob = encode_goal(columnar)
        assert blob == list_encode_goal(oracle)
        assert_same(decode_goal(blob), oracle)
        assert_same(parse_goal(write_goal(columnar), name="prog"), oracle)
        assert write_goal(columnar) == list_write_goal(oracle)


# ---------------------------------------------------------------------------
# the views
# ---------------------------------------------------------------------------
class TestViews:
    def _rank(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(10))
        b = rank.add_op(Op.send(8, dst=1, tag=3), requires=[a])
        rank.add_op(Op.recv(8, src=1, cpu=2), requires=[a, b])
        return rank

    def test_ops_compare_with_views_and_plain_lists(self):
        rank = self._rank()
        expected = [Op.calc(10), Op.send(8, dst=1, tag=3), Op.recv(8, src=1, cpu=2)]
        assert rank.ops == expected and rank.ops == tuple(expected) and rank.ops == self._rank().ops
        assert rank.ops != expected[:2] and rank.ops != expected[::-1]
        assert [rank.ops] == [expected]
        assert rank.ops[-1] == expected[-1] and rank.ops[1:] == expected[1:]
        assert expected[1] in rank.ops and rank.ops.index(expected[2]) == 2
        assert rank.ops[1].kind is OpType.SEND and rank.ops[0].peer is None
        with pytest.raises(IndexError):
            rank.ops[3]

    def test_preds_compare_with_views_and_plain_lists(self):
        rank = self._rank()
        assert rank.preds == [[], [0], [0, 1]] and rank.preds == self._rank().preds
        assert rank.preds != [[], [0], [1]]
        assert rank.preds[-1] == [0, 1] and rank.preds[:2] == [[], [0]]
        assert len(rank.preds) == 3 and list(rank.preds) == [[], [0], [0, 1]]

    @pytest.mark.parametrize("field", ["kind", "size", "peer", "tag", "cpu"])
    def test_an_op_refuses_field_assignment(self, field):
        rank = self._rank()
        read = rank.ops[1]
        for op in (read, Op.send(8, dst=1, tag=3), rank.ops[1:][0], next(iter(rank.ops))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(op, field, getattr(op, field))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(op, field)
        with pytest.raises(AttributeError):
            read.size += 1
        assert read == Op.send(8, dst=1, tag=3) and rank.ops == self._rank().ops

    def test_equal_ops_hash_alike_and_survive_pickling(self):
        rank = self._rank()
        assert {rank.ops[1], Op.send(8, dst=1, tag=3)} == {Op.send(8, dst=1, tag=3)}
        assert {rank.ops[2]: "recv"}[Op.recv(8, src=1, cpu=2)] == "recv"
        for op in rank.ops:
            again = pickle.loads(pickle.dumps(op))
            assert again == op and hash(again) == hash(op)

    def test_numpy_views_refuse_writes(self):
        rank = self._rank()
        for view in (*rank.columns(), *rank.pred_csr()):
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1
            with pytest.raises(ValueError):
                view.flags.writeable = True
        rank.preds[1].append(2)  # a fresh list: changes nothing
        with pytest.raises(TypeError):
            rank.preds[1] = [0]
        assert rank.ops == self._rank().ops and rank.preds == [[], [0], [0, 1]]

    def test_raw_csr_writes_are_caught_by_the_validator(self):
        # the CSR arrays are public, so a backward edge is still checked
        rank = self._rank()
        rank.pred_idx[0] = 2
        assert rank.preds == [[], [2], [0, 1]] and rank.successors() == [[2], [2], [1]]
        sched = GoalSchedule(1)
        sched.ranks[0] = rank
        with pytest.raises(ValueError, match="vertex 1 depends on later/equal vertex 2"):
            validate_schedule(sched, check_matching=False)


# ---------------------------------------------------------------------------
# what enters a schedule is checked where it enters
# ---------------------------------------------------------------------------
class TestEntryChecks:
    def test_plain_int_kind_is_normalised(self):
        op = Op(0, 5, peer=1)
        assert op.kind is OpType.SEND
        sched = GoalSchedule(2)
        sched.ranks[0].add_op(op)
        sched.ranks[0].append_op(2, 7)
        sched.ranks[1].add_op(Op(1, 5, peer=0))
        assert sched.op_counts() == {"send": 1, "recv": 1, "calc": 1}
        assert "op0: send 5b to 1" in write_goal(sched)
        sched.ranks[0].add_op(Op(0, 5, peer=0))
        with pytest.raises(ValueError, match=r"vertex 2 \(send\) targets its own rank"):
            validate_schedule(sched)
        assert all(type(op.kind) is OpType for op in sched.ranks[0].ops)

    @pytest.mark.parametrize("kind", [3, -1, 7])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            Op(kind, 1, peer=0)
        with pytest.raises(ValueError):
            RankSchedule(0).append_op(kind, 1, 0)

    def test_fractions_are_refused_not_truncated(self):
        with pytest.raises(TypeError, match="op size must be an integer, got 3.7"):
            Op.calc(3.7)
        with pytest.raises(TypeError, match="peer rank must be an integer"):
            Op.send(10, 1.9)
        rank = RankSchedule(0)
        with pytest.raises(TypeError, match="tag must be an integer"):
            rank.append_op(OpType.SEND, 1, 1, tag=0.5)
        assert len(rank) == 0 and len(rank.pred_ptr) == 1

    def test_numpy_integers_pass(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(np.int64(4), cpu=np.uint8(1)))
        rank.add_op(Op.send(np.uint64(BIG[1]), np.int32(1)), requires=np.array([0]))
        rank.add_op(Op.calc(1), requires=np.array([1, 0, 1]))
        rank.add_op(Op.calc(1), requires=(d for d in [2]))
        assert rank.ops == [Op.calc(4, cpu=1), Op.send(BIG[1], 1), Op.calc(1), Op.calc(1)]
        assert rank.preds == [[], [0], [0, 1], [2]]
        assert type(rank.ops[0].size) is int

    def test_out_of_range_values_name_the_field(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1))
        for kwargs, field in (
            (dict(size=1 << 64), "op size"),
            (dict(size=1, peer=1 << 64), "peer rank"),
            (dict(size=1, tag=-1), "tag"),
            (dict(size=1, cpu=1 << 64), "cpu"),
        ):
            kwargs.setdefault("peer", 1)
            with pytest.raises(ValueError, match=field):
                rank.append_op(OpType.RECV, requires=[0], **kwargs)
        assert rank.ops == [Op.calc(1)] and rank.preds == [[]] and list(rank.pred_ptr) == [0, 0]

    @pytest.mark.parametrize("value", BIG)
    def test_largest_values_survive_every_path(self, value):
        sched = GoalSchedule(2, name="big")
        a = sched.ranks[0].add_op(Op.calc(value, cpu=value))
        sched.ranks[0].add_op(Op.send(value, dst=1, tag=value, cpu=value), requires=[a])
        sched.ranks[1].add_op(Op.recv(value, src=0, tag=value, cpu=value))
        validate_schedule(sched)
        oracle = to_oracle(sched)
        for other in (
            decode_goal(encode_goal(sched)),
            parse_goal(write_goal(sched), name="big"),
            remap_ranks(sched, {0: 0, 1: 1}),
        ):
            assert_same(other, oracle)
        assert sched.total_calc_ns() == value and sched.total_bytes() == value
        assert sched.ranks[0].critical_path_ns() == value
        assert sched.ranks[0].compute_streams() == [value]
        delayed = delay_schedule(sched, value)
        assert delayed.total_calc_ns() == 3 * value  # (one delay vertex per rank; past 2**64)
        assert delayed.ranks[0].critical_path_ns() == 2 * value
        with pytest.raises(ValueError, match=f"'big' uses tag {value} >= TAG_STRIDE"):
            concatenate_schedules([sched, sched])

    def test_extend_checks_whole_columns(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1))
        base = rank.extend([2, 0], [5, 6], [0, 1], [0, 9], [0, 0], [0, 0, 1], [0])
        assert base == 1 and rank.ops == [Op.calc(1), Op.calc(5), Op.send(6, 1, tag=9)]
        assert rank.preds == [[], [], [1]]
        bad = [
            ([3], [1], [0], [0], [0], [0, 0], []),  # kind
            ([2], [-1], [0], [0], [0], [0, 0], []),  # negative
            ([2], [1.5], [0], [0], [0], [0, 0], []),  # fraction
            ([2], [1], [4], [0], [0], [0, 0], []),  # calc with a peer
            ([2, 2], [1], [0, 0], [0, 0], [0, 0], [0, 0, 0], []),  # lengths
            ([2, 2], [1, 1], [0, 0], [0, 0], [0, 0], [0, 0, 1], [1]),  # self edge
            ([2, 2], [1, 1], [0, 0], [0, 0], [0, 0], [0, 1, 1], [0]),  # root with an edge
            ([2, 2, 2], [1] * 3, [0] * 3, [0] * 3, [0] * 3, [0, 0, 0, 2], [1, 0]),  # unsorted
            ([2, 2], [1, 1], [0, 0], [0, 0], [0, 0], [0, 0, 2], [0, 0]),  # duplicate
            ([2], [1], [0], [0], [0], [0, 1], []),  # pointer past the edges
        ]
        for columns in bad:
            with pytest.raises(ValueError):
                rank.extend(*columns)
        assert len(rank) == 3 and rank.preds == [[], [], [1]]

    def test_decoder_sorts_and_dedupes_foreign_dependency_lists(self):
        # vertex 3 lists deltas 1, 3, 1, 2 (vertices 2, 0, 2, 1); another rank follows
        blob = (
            b"GOAL\x02\x01x\x02\x04" + b"\x02\x01" * 3 + b"\x12\x01\x04\x01\x03\x01\x02"
            + b"\x02" + b"\x02\x01" + b"\x12\x01\x02\x01\x01"
        )
        decoded = decode_goal(blob)
        assert decoded.ranks[0].preds == [[], [], [], [0, 1, 2]]
        assert decoded.ranks[1].preds == [[], [0]]


# ---------------------------------------------------------------------------
# the point of it: no object per op
# ---------------------------------------------------------------------------
def test_resident_bytes_per_op_of_the_hpcg_schedule():
    """An object list cannot creep back in unnoticed: the 256-rank HPCG schedule stays
    within 64 bytes per op, all columns and the dependency index included."""
    trace = HPC_APPLICATIONS["hpcg"].trace(HpcRunConfig(num_ranks=256, iterations=2, seed=0))
    schedule = mpi_trace_to_goal(trace)
    columns = ("kind", "size", "peer", "tag", "cpu", "pred_ptr", "pred_idx")
    resident = sum(
        len(column) * column.itemsize
        for rank in schedule.ranks
        for column in (getattr(rank, name) for name in columns)
    )
    assert schedule.num_ops() > 50_000
    assert resident / schedule.num_ops() <= 64
    # ... and nothing else on a rank grows with its length
    extras = {k: v for k, v in vars(schedule.ranks[0]).items() if k.lstrip("_") not in columns}
    assert all(not hasattr(v, "__len__") or len(v) == 0 for v in extras.values()), extras
