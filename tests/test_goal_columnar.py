"""The columnar schedule against the object-list schedule it replaced.

``RankSchedule`` used to hold one ``Op`` object and one predecessor list per
vertex; it now holds one array per field and a CSR dependency index.  The old
representation lives on here, as the oracle: everything that builds, walks,
transforms, writes or runs a schedule is applied to both and must agree --
op for op, edge for edge, byte for byte, simulated nanosecond for nanosecond.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.goal import (
    GoalSchedule,
    Op,
    OpType,
    concatenate_schedules,
    decode_goal,
    delay_schedule,
    encode_goal,
    merge_onto_shared_nodes,
    parse_goal,
    relabel_tags,
    remap_ranks,
    validate_schedule,
    write_goal,
)
from repro.goal.schedule import RankSchedule
from repro.network import LogGOPSParams, SimulationConfig
from repro.schedgen import (
    DirectDriveConfig,
    mpi_trace_to_goal,
    nccl_trace_to_goal,
    storage_trace_to_goal,
)
from repro.scheduler import GoalScheduler
from repro.tracers.storage import FinancialWorkloadGenerator

BIG = (1 << 63, (1 << 64) - 1)


# ---------------------------------------------------------------------------
# the oracle: the schedule as a list of Op objects and a list of lists
# ---------------------------------------------------------------------------
class ListRank:
    """``RankSchedule`` as it stood at the parent commit (what is compared of it)."""

    def __init__(self, rank):
        self.rank = rank
        self.ops = []
        self.preds = []

    def add_op(self, op, requires=()):
        idx = len(self.ops)
        deps = sorted(set(requires))
        assert not deps or (deps[0] >= 0 and deps[-1] < idx)
        self.ops.append(op)
        self.preds.append(deps)
        return idx

    def add_dependency(self, vertex, requires):
        assert 0 <= requires < vertex < len(self.ops)
        if requires not in self.preds[vertex]:
            self.preds[vertex].append(requires)
            self.preds[vertex].sort()

    def successors(self):
        succs = [[] for _ in self.ops]
        for v, deps in enumerate(self.preds):
            for d in deps:
                succs[d].append(v)
        return succs

    def in_degrees(self):
        return [len(deps) for deps in self.preds]

    def roots(self):
        return [v for v, deps in enumerate(self.preds) if not deps]

    def leaves(self):
        return [v for v, s in enumerate(self.successors()) if not s]

    def critical_path_ns(self):
        dist = [0] * len(self.ops)
        for v, op in enumerate(self.ops):
            base = max((dist[p] for p in self.preds[v]), default=0)
            dist[v] = base + (op.size if op.is_calc else 0)
        return max(dist, default=0)

    def copy(self):
        new = ListRank(self.rank)
        new.ops = [op.copy() for op in self.ops]
        new.preds = [list(p) for p in self.preds]
        return new


class ListSchedule:
    def __init__(self, num_ranks, name="goal"):
        self.name = name
        self.ranks = [ListRank(r) for r in range(num_ranks)]

    @property
    def num_ranks(self):
        return len(self.ranks)

    def copy(self):
        new = ListSchedule(self.num_ranks, self.name)
        new.ranks = [r.copy() for r in self.ranks]
        return new

    def summary(self):
        ops = [op for r in self.ranks for op in r.ops]
        return {
            "name": self.name,
            "num_ranks": self.num_ranks,
            "num_ops": len(ops),
            "num_edges": sum(len(d) for r in self.ranks for d in r.preds),
            "sends": sum(op.is_send for op in ops),
            "recvs": sum(op.is_recv for op in ops),
            "calcs": sum(op.is_calc for op in ops),
            "total_bytes": sum(op.size for op in ops if op.is_send),
            "total_calc_ns": sum(op.size for op in ops if op.is_calc),
        }


def _unlabelled(op):
    new = op.copy()
    new.label = None
    return new


def list_remap_ranks(schedule, mapping, num_ranks):
    merged = ListSchedule(num_ranks, schedule.name)
    for rank in schedule.ranks:
        new_rank = merged.ranks[mapping[rank.rank]]
        for idx, op in enumerate(rank.ops):
            new_op = _unlabelled(op)
            if new_op.is_comm:
                new_op.peer = mapping[op.peer]
            new_rank.add_op(new_op, rank.preds[idx])
    return merged


def list_relabel_tags(schedule, tag_offset):
    out = schedule.copy()
    for rank in out.ranks:
        for op in rank.ops:
            if op.is_comm:
                op.tag += tag_offset
    return out


def list_delay_schedule(schedule, delay_ns):
    if delay_ns == 0:
        return schedule
    out = ListSchedule(schedule.num_ranks, schedule.name)
    for rank in schedule.ranks:
        if not rank.ops:
            continue
        roots = set(rank.roots())
        new_rank = out.ranks[rank.rank]
        new_rank.add_op(Op.calc(delay_ns))
        for idx, op in enumerate(rank.ops):
            deps = [d + 1 for d in rank.preds[idx]]
            if idx in roots:
                deps.append(0)
            new_rank.add_op(op.copy(), deps)
    return out


def list_merge(schedules, placements, num_ranks, name, tag_stride, stream_stride=0, arrivals=None):
    """``concatenate_schedules`` (``stream_stride=0``) and ``merge_onto_shared_nodes``."""
    if arrivals is not None:
        schedules = [list_delay_schedule(s, a) for s, a in zip(schedules, arrivals)]
    merged = ListSchedule(num_ranks, name)
    for job, (sched, placement) in enumerate(zip(schedules, placements)):
        for rank in sched.ranks:
            dst = merged.ranks[placement[rank.rank]]
            base = len(dst.ops)
            for idx, op in enumerate(rank.ops):
                new_op = _unlabelled(op)
                new_op.cpu = op.cpu + job * stream_stride
                if new_op.is_comm:
                    new_op.peer = placement[op.peer]
                    new_op.tag += job * tag_stride
                dst.add_op(new_op, [base + d for d in rank.preds[idx]])
    return merged


def list_write_goal(schedule):
    """The parent's writer, for schedules without user labels."""
    lines = [f"num_ranks {schedule.num_ranks}", ""]
    for rank in schedule.ranks:
        lines.append(f"rank {rank.rank} {{")
        requires = []
        for idx, (op, deps) in enumerate(zip(rank.ops, rank.preds)):
            if op.kind == OpType.CALC:
                line = f"    op{idx}: calc {op.size}"
            else:
                verb, word = ("send", "to") if op.kind == OpType.SEND else ("recv", "from")
                line = f"    op{idx}: {verb} {op.size}b {word} {op.peer}"
                if op.tag:
                    line += f" tag {op.tag}"
            if op.cpu:
                line += f" cpu {op.cpu}"
            lines.append(line)
            requires += [f"    op{idx} requires op{dep}" for dep in deps]
        lines += requires + ["}", ""]
    return "\n".join(lines)


def _varint(value):
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | 0x80 if value else byte)
        if not value:
            return bytes(out)


def list_encode_goal(schedule):
    """The parent's encoder, one scalar varint at a time."""
    name = schedule.name.encode("utf-8")
    buf = bytearray(b"GOAL\x02" + _varint(len(name)) + name + _varint(schedule.num_ranks))
    for rank in schedule.ranks:
        buf += _varint(len(rank.ops))
        for idx, (op, deps) in enumerate(zip(rank.ops, rank.preds)):
            header = int(op.kind) | (0x04 if op.tag else 0) | (0x08 if op.cpu else 0) | (0x10 if deps else 0)
            buf += bytes([header]) + _varint(op.size)
            if op.kind != OpType.CALC:
                buf += _varint(op.peer)
            if op.tag:
                buf += _varint(op.tag)
            if op.cpu:
                buf += _varint(op.cpu)
            if deps:
                buf += _varint(len(deps)) + b"".join(_varint(idx - dep) for dep in deps)
    return bytes(buf)


class ListScheduler(GoalScheduler):
    """The parent's scheduling walk: Op objects, nested successor lists, per-run tables."""

    def __init__(self, oracle, schedule, backend, config):
        super().__init__(schedule, backend, config, validate=False)
        self._list_ops = [r.ops for r in oracle.ranks]
        self._list_succ = [r.successors() for r in oracle.ranks]
        self._list_indegree = [r.in_degrees() for r in oracle.ranks]
        self._list_issued = [[False] * len(r.ops) for r in oracle.ranks]

    def _issue(self, rank, vertex, ready_time):
        assert not self._list_issued[rank][vertex]
        self._list_issued[rank][vertex] = True
        op = self._list_ops[rank][vertex]
        op_id = self._offsets[rank] + vertex
        if op.kind is OpType.CALC:
            self._issue_calc(rank, op.cpu, op.size, op_id, ready_time)
        elif op.kind is OpType.SEND:
            self._issue_send(rank, op.peer, op.size, op.tag, op.cpu, op_id, ready_time)
        else:
            self._issue_recv(rank, op.peer, op.size, op.tag, op.cpu, op_id, ready_time)

    def _on_complete(self, time, rank, op_id):
        vertex = op_id - self._offsets[rank]
        self._completed += 1
        self._finish_time = max(self._finish_time, time)
        indegree = self._list_indegree[rank]
        for succ in self._list_succ[rank][vertex]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                self._issue(rank, succ, time)


# ---------------------------------------------------------------------------
# comparing the two
# ---------------------------------------------------------------------------
def assert_same(columnar, oracle, labels=True):
    """``labels=False`` for a schedule that came through a codec (binary drops labels,
    text names every vertex)."""
    assert columnar.num_ranks == oracle.num_ranks
    for col, ref in zip(columnar.ranks, oracle.ranks):
        assert col.rank == ref.rank and len(col) == len(ref.ops)
        assert col.ops == ref.ops and list(col.ops) == ref.ops
        if labels:
            assert [op.label for op in col.ops] == [op.label for op in ref.ops]
        assert col.preds == ref.preds and list(col.preds) == ref.preds
        assert col.successors() == ref.successors()
        assert col.in_degrees() == ref.in_degrees()
        assert col.roots() == ref.roots()
        assert col.leaves() == ref.leaves()
        assert col.critical_path_ns() == ref.critical_path_ns()
    assert columnar.summary() == oracle.summary()


def to_oracle(schedule):
    """Replay a columnar schedule, read through its views, into the oracle."""
    oracle = ListSchedule(schedule.num_ranks, schedule.name)
    for rank, ref in zip(schedule.ranks, oracle.ranks):
        for op, deps in zip(rank.ops, rank.preds):
            ref.add_op(op.copy(), deps)
    return oracle


# ---------------------------------------------------------------------------
# random programs
# ---------------------------------------------------------------------------
_values = st.one_of(st.integers(0, 300), st.sampled_from((0, 1, 127, 128, 1 << 32) + BIG))
_small = st.integers(0, 40)


@st.composite
def programs(draw, max_cpu=None, max_tag=None):
    """Construction steps for one schedule: ops with dependencies and labels, late edges."""
    num_ranks = draw(st.integers(1, 4))
    steps, sizes = [], [0] * num_ranks
    for i in range(draw(st.integers(0, 30))):
        rank = draw(st.integers(0, num_ranks - 1))
        n = sizes[rank]
        if n >= 2 and draw(st.integers(0, 3)) == 0:
            vertex = draw(st.integers(1, n - 1))
            steps.append(("dep", rank, vertex, draw(st.integers(0, vertex - 1))))
            continue
        kind = draw(st.sampled_from(list(OpType)))
        peer = None if kind is OpType.CALC else draw(st.integers(0, num_ranks - 1))
        tag = draw(_values if max_tag is None else st.integers(0, max_tag))
        cpu = draw(_values if max_cpu is None else st.integers(0, max_cpu))
        # dependencies in any order, with repeats
        deps = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
        label = f"v{i}" if draw(st.booleans()) else None
        steps.append(("op", rank, (kind, draw(_values), peer, 0 if peer is None else tag, cpu, label), deps))
        sizes[rank] += 1
    return num_ranks, steps


def build_both(program, name="prog"):
    num_ranks, steps = program
    columnar, oracle = GoalSchedule(num_ranks, name), ListSchedule(num_ranks, name)
    for step in steps:
        if step[0] == "op":
            _, rank, fields, deps = step
            a = columnar.ranks[rank].add_op(Op(*fields), deps)
            b = oracle.ranks[rank].add_op(Op(*fields), deps)
            assert a == b
        else:
            _, rank, vertex, requires = step
            columnar.ranks[rank].add_dependency(vertex, requires)
            oracle.ranks[rank].add_dependency(vertex, requires)
    return columnar, oracle


class TestRandomPrograms:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_construction_and_copy(self, program):
        columnar, oracle = build_both(program)
        assert_same(columnar, oracle)
        assert_same(columnar.copy(), oracle.copy())
        # reading between mutations (which folds queued edges) changes nothing
        again, _ = build_both(program)
        for rank in again.ranks:
            rank.preds
        assert_same(again, oracle)

    @settings(max_examples=100, deadline=None)
    @given(programs(), st.integers(0, 300))
    def test_builder_scalars_equal_ops(self, program, seed):
        num_ranks, steps = program
        by_ops, _ = build_both(program)
        by_scalars = GoalSchedule(num_ranks, "prog")
        for step in steps:
            if step[0] == "op":
                _, rank, (kind, size, peer, tag, cpu, label), deps = step
                by_scalars.ranks[rank].append_op(kind, size, peer, tag, cpu, np.array(deps, dtype=np.int64), label)
            else:
                by_scalars.ranks[step[1]].add_dependency(step[2], step[3])
        assert_same(by_scalars, to_oracle(by_ops))

    @settings(max_examples=100, deadline=None)
    @given(programs(max_tag=1 << 63), st.data())
    def test_remap_relabel_delay(self, program, data):
        columnar, oracle = build_both(program)
        n = columnar.num_ranks
        targets = data.draw(st.permutations(range(n + 2)))[:n]
        mapping = dict(enumerate(targets))
        assert_same(remap_ranks(columnar, mapping, num_ranks=n + 2), list_remap_ranks(oracle, mapping, n + 2))
        offset = data.draw(st.integers(0, 1 << 20))
        assert_same(relabel_tags(columnar, offset), list_relabel_tags(oracle, offset))
        delay = data.draw(st.sampled_from((0, 1, 12345) + BIG))
        assert_same(delay_schedule(columnar, delay), list_delay_schedule(oracle, delay))

    @settings(max_examples=100, deadline=None)
    @given(programs(max_cpu=63, max_tag=1 << 20), programs(max_cpu=63, max_tag=1 << 20), st.data())
    def test_merges(self, first, second, data):
        pairs = [build_both(first, "a"), build_both(second, "b")]
        columnar = [c for c, _ in pairs]
        oracle = [o for _, o in pairs]
        arrivals = [data.draw(st.integers(0, 50)), data.draw(st.integers(0, 50))]
        total = columnar[0].num_ranks + columnar[1].num_ranks
        disjoint = [
            {r: r for r in range(columnar[0].num_ranks)},
            {r: columnar[0].num_ranks + r for r in range(columnar[1].num_ranks)},
        ]
        assert_same(
            concatenate_schedules(columnar, disjoint, total, "m", 1 << 21, arrivals),
            list_merge(oracle, disjoint, total, "m", 1 << 21, arrivals=arrivals),
        )
        shared = [
            {r: data.draw(st.integers(0, 2)) for r in range(s.num_ranks)} for s in columnar
        ]
        for mapping in shared:  # injective within a tenant
            for r, node in zip(mapping, data.draw(st.permutations(range(4)))):
                mapping[r] = node
        assert_same(
            merge_onto_shared_nodes(columnar, shared, 4, "m", 1 << 21, 64, arrivals),
            list_merge(oracle, shared, 4, "m", 1 << 21, 64, arrivals),
        )

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_codecs(self, program):
        columnar, oracle = build_both(program)
        blob = encode_goal(columnar)
        assert blob == list_encode_goal(oracle)
        assert_same(decode_goal(blob), oracle, labels=False)
        assert_same(parse_goal(write_goal(columnar), name="prog"), oracle, labels=False)
        plain = remap_ranks(columnar, {r: r for r in range(columnar.num_ranks)})  # (drops labels)
        assert write_goal(plain) == list_write_goal(oracle)


# ---------------------------------------------------------------------------
# the paper's workloads: construction, text, binary, simulation
# ---------------------------------------------------------------------------
def _lulesh():
    return mpi_trace_to_goal(HPC_APPLICATIONS["lulesh"].trace(HpcRunConfig(num_ranks=8, iterations=2, seed=1)))


def _hpcg():
    return mpi_trace_to_goal(HPC_APPLICATIONS["hpcg"].trace(HpcRunConfig(num_ranks=16, iterations=2, seed=1)))


def _llama():
    par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=16)
    report = LlmTrainer(llama_7b().scaled(0.02), par, gpus_per_node=4, iterations=1, seed=1).trace()
    return nccl_trace_to_goal(report, gpus_per_node=4)


def _direct_drive():
    trace = FinancialWorkloadGenerator(seed=7, mean_size_bytes=16384).generate(60)
    return storage_trace_to_goal(trace, DirectDriveConfig(num_clients=4, num_ccs=4, num_bss=8, timescale=0.005))


WORKLOADS = {"lulesh": _lulesh, "hpcg": _hpcg, "llama": _llama, "direct_drive": _direct_drive}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def generated(request):
    """A generated schedule, and the oracle fed the very calls its generator made."""
    fed = {}
    real = RankSchedule.append_op

    def spy(self, kind, size, peer=None, tag=0, cpu=0, requires=(), label=None):
        ref = fed.setdefault(id(self), (self, ListRank(self.rank)))[1]
        ref.add_op(Op(kind, size, peer, tag, cpu, label), requires)
        return real(self, kind, size, peer, tag, cpu, requires, label)

    patch = pytest.MonkeyPatch()
    patch.setattr(RankSchedule, "append_op", spy)
    try:
        columnar = WORKLOADS[request.param]()
    finally:
        patch.undo()
    oracle = ListSchedule(columnar.num_ranks, columnar.name)
    oracle.ranks = [fed[id(rank)][1] if id(rank) in fed else ListRank(rank.rank) for rank in columnar.ranks]
    return columnar, oracle


class TestPaperWorkloads:
    def test_generators_build_the_same_schedule(self, generated):
        columnar, oracle = generated
        assert columnar.num_ops() > 500
        assert_same(columnar, oracle)
        validate_schedule(columnar)

    def test_text_is_byte_identical_and_parses_back(self, generated):
        columnar, oracle = generated
        text = write_goal(columnar)
        assert text == list_write_goal(oracle)
        assert_same(parse_goal(text, name=columnar.name), oracle, labels=False)

    def test_blob_is_byte_identical_and_decodes_back(self, generated):
        columnar, oracle = generated
        blob = encode_goal(columnar)
        assert blob == list_encode_goal(oracle)
        assert_same(decode_goal(blob), oracle, labels=False)

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_simulation_is_identical(self, generated, backend):
        columnar, oracle = generated
        config = SimulationConfig(topology="fat_tree", nodes_per_tor=4, loggops=LogGOPSParams.hpc_cluster(), seed=3)
        new = GoalScheduler(columnar, backend, config, validate=False).run()
        old = ListScheduler(oracle, columnar, backend, config).run()
        assert new.ops_completed == old.ops_completed == columnar.num_ops()
        assert new.finish_time_ns == old.finish_time_ns
        assert new.rank_finish_times_ns == old.rank_finish_times_ns
        assert new.stats == old.stats
        assert new.message_records == old.message_records


# ---------------------------------------------------------------------------
# the views
# ---------------------------------------------------------------------------
class TestViews:
    def _rank(self):
        rank = RankSchedule(0)
        a = rank.add_op(Op.calc(10, label="a"))
        b = rank.add_op(Op.send(8, dst=1, tag=3), requires=[a])
        rank.add_op(Op.recv(8, src=1, cpu=2), requires=[a, b])
        return rank

    def test_ops_compare_with_views_and_plain_lists(self):
        rank = self._rank()
        expected = [Op.calc(10), Op.send(8, dst=1, tag=3), Op.recv(8, src=1, cpu=2)]
        assert rank.ops == expected and rank.ops == tuple(expected) and rank.ops == rank.copy().ops
        assert rank.ops != expected[:2] and rank.ops != expected[::-1]
        assert [rank.ops] == [expected]
        assert rank.ops[-1] == expected[-1] and rank.ops[1:] == expected[1:]
        assert expected[1] in rank.ops and rank.ops.index(expected[2]) == 2
        assert rank.ops[0].label == "a" and rank.ops[1].label is None
        assert rank.ops[1].kind is OpType.SEND and rank.ops[0].peer is None
        with pytest.raises(IndexError):
            rank.ops[3]

    def test_preds_compare_with_views_and_plain_lists(self):
        rank = self._rank()
        assert rank.preds == [[], [0], [0, 1]] and rank.preds == rank.copy().preds
        assert rank.preds != [[], [0], [1]]
        assert rank.preds[-1] == [0, 1] and rank.preds[:2] == [[], [0]]
        assert len(rank.preds) == 3 and list(rank.preds) == [[], [0], [0, 1]]

    def test_field_writes_go_through_checked(self):
        rank = self._rank()
        rank.ops[0].size = 99
        rank.ops[1].tag = BIG[1]
        rank.ops[2].label = "c"
        assert rank.ops == [Op.calc(99), Op.send(8, dst=1, tag=BIG[1]), Op.recv(8, src=1, cpu=2)]
        assert rank.vertex_by_label("c") == 2 and rank.total_calc_ns() == 99
        op = rank.ops[1]
        op.size += 1
        assert op.size == 9 and rank.ops[1].size == 9
        for field, value in (("size", -1), ("tag", 1 << 64), ("peer", None), ("label", "a")):
            with pytest.raises(ValueError):
                setattr(rank.ops[1], field, value)
        with pytest.raises(TypeError):
            rank.ops[1].size = 1.5
        assert rank.ops[1] == Op.send(9, dst=1, tag=BIG[1])

    def test_a_copy_shares_nothing(self):
        rank = self._rank()
        cp = rank.copy()
        cp.ops[0].size = 1
        cp.preds[1].append(0)  # a fresh list: changes neither
        cp.preds[2] = [0]
        cp.add_op(Op.calc(1, label="z"))
        assert rank.ops[0].size == 10 and rank.preds == [[], [0], [0, 1]] and len(rank) == 3
        assert cp.preds == [[], [0], [0], []] and "z" not in rank.labels
        free = rank.ops[0].copy()
        free.size = 5  # a copy of a view's op is a plain Op again
        assert rank.ops[0].size == 10

    def test_preds_assignment_is_the_unchecked_back_door(self):
        rank = self._rank()
        rank.preds[0] = [2]
        rank.preds[1] = []
        assert rank.preds == [[2], [], [0, 1]] and rank.successors() == [[2], [2], [0]]
        sched = GoalSchedule(1)
        sched.ranks[0] = rank
        with pytest.raises(ValueError, match="vertex 0 depends on later/equal vertex 2"):
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
            sched.copy(),
            decode_goal(encode_goal(sched)),
            parse_goal(write_goal(sched), name="big"),
            remap_ranks(sched, {0: 0, 1: 1}),
            relabel_tags(sched, 0),
        ):
            assert_same(other, oracle, labels=False)
        assert sched.total_calc_ns() == value and sched.total_bytes() == value
        assert sched.ranks[0].critical_path_ns() == value
        assert sched.ranks[0].compute_streams() == [value]
        delayed = delay_schedule(sched, value)
        assert delayed.total_calc_ns() == 3 * value  # (one delay vertex per rank; past 2**64)
        assert delayed.ranks[0].critical_path_ns() == 2 * value
        with pytest.raises(ValueError, match="does not fit 64 bits"):
            relabel_tags(sched, 1 << 63 if value == BIG[0] else 1)

    def test_extend_checks_whole_columns(self):
        rank = RankSchedule(0)
        rank.add_op(Op.calc(1, label="a"))
        base = rank.extend([2, 0], [5, 6], [0, 1], [0, 9], [0, 0], [0, 0, 1], [0], {"b": 1})
        assert base == 1 and rank.ops == [Op.calc(1), Op.calc(5), Op.send(6, 1, tag=9)]
        assert rank.preds == [[], [], [1]] and rank.vertex_by_label("b") == 2
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
        with pytest.raises(ValueError, match="duplicate label 'a'"):
            rank.extend([2], [1], [0], [0], [0], [0, 0], [], {"a": 0})
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
