"""The object-list schedule, its scalar codecs and its scheduling walk (test-only).

``RankSchedule`` used to hold one ``Op`` object and one predecessor list per
vertex; it now holds one array per field and a CSR dependency index.  The old
representation lives on here as the oracle the columnar schedule is compared
against: :class:`ListSchedule` and the transforms on it, the text writer and
the scalar (one varint at a time) binary encoder and decoder, and
:class:`ListScheduler`, the old walk of Op objects and nested successor
lists.  The writer and the encoder read only ``name``, ``num_ranks`` and each
rank's ``rank`` / ``ops`` / ``preds``, so they take a columnar schedule as
well.  :func:`views` is everything compared of a schedule, as plain values.
:func:`list_group_ranks_into_nodes` is the Stage-4 grouping pass as it stood
before its columnar rewrite (tuple-keyed dicts, one ``append_op`` per vertex).

Nothing in ``src/`` knows about it.  The comparisons are rows of
``tests/differential.py`` and the property tests of
``tests/test_goal_columnar.py``, ``tests/test_goal_codec.py`` and
``tests/test_grouping_oracle.py``.
"""
from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
import pytest

from repro.goal import Op, OpType
from repro.goal.binary import GoalBinaryError
from repro.goal.schedule import GoalSchedule, RankSchedule
from repro.scheduler import GoalScheduler


class ListRank:
    """``RankSchedule`` as it stood before the columnar rewrite (what is compared of it)."""

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


class ListSchedule:
    def __init__(self, num_ranks, name="goal"):
        self.name = name
        self.ranks = [ListRank(r) for r in range(num_ranks)]

    @property
    def num_ranks(self):
        return len(self.ranks)

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


def _moved(op, placement, tag_offset=0, cpu_offset=0):
    """``op`` with its peer placed and its tag and stream shifted."""
    if op.is_calc:
        return Op(op.kind, op.size, None, op.tag, op.cpu + cpu_offset)
    return Op(op.kind, op.size, placement[op.peer], op.tag + tag_offset, op.cpu + cpu_offset)


def list_remap_ranks(schedule, mapping, num_ranks):
    merged = ListSchedule(num_ranks, schedule.name)
    for rank in schedule.ranks:
        new_rank = merged.ranks[mapping[rank.rank]]
        for idx, op in enumerate(rank.ops):
            new_rank.add_op(_moved(op, mapping), rank.preds[idx])
    return merged


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
            new_rank.add_op(op, deps)
    return out


def list_merge(schedules, placements, num_ranks, name):
    """``concatenate_schedules``: job *i*'s tags move by ``i * 2**32``; its
    streams move by ``i * 64`` only when some node hosts two jobs."""
    tag_stride, stream_stride = 1 << 32, 64
    nodes = [placement[r] for sched, placement in zip(schedules, placements) for r in range(sched.num_ranks)]
    if len(set(nodes)) == len(nodes):
        stream_stride = 0
    merged = ListSchedule(num_ranks, name)
    for job, (sched, placement) in enumerate(zip(schedules, placements)):
        for rank in sched.ranks:
            dst = merged.ranks[placement[rank.rank]]
            base = len(dst.ops)
            for idx, op in enumerate(rank.ops):
                moved = _moved(op, placement, job * tag_stride, job * stream_stride)
                dst.add_op(moved, [base + d for d in rank.preds[idx]])
    return merged


def list_write_goal(schedule):
    """The old writer: vertex ``i`` of a rank block is ``op{i}``."""
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
    """The old encoder, one scalar varint at a time."""
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


def _read_varint(data, pos):
    result = shift = 0
    while True:
        if pos >= len(data):
            raise GoalBinaryError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise GoalBinaryError("varint too long")


def list_decode_goal(data):
    """The old decoder, one scalar varint at a time."""
    assert data[:4] == b"GOAL" and data[4] == 2
    name_len, pos = _read_varint(data, 5)
    name = data[pos : pos + name_len].decode("utf-8")
    num_ranks, pos = _read_varint(data, pos + name_len)
    schedule = ListSchedule(num_ranks, name)
    for rank in schedule.ranks:
        num_ops, pos = _read_varint(data, pos)
        for idx in range(num_ops):
            header = data[pos]
            kind = OpType(header & 0x03)
            size, pos = _read_varint(data, pos + 1)
            peer = None
            if kind != OpType.CALC:
                peer, pos = _read_varint(data, pos)
            tag = cpu = 0
            if header & 0x04:
                tag, pos = _read_varint(data, pos)
            if header & 0x08:
                cpu, pos = _read_varint(data, pos)
            deps = []
            if header & 0x10:
                ndeps, pos = _read_varint(data, pos)
                for _ in range(ndeps):
                    delta, pos = _read_varint(data, pos)
                    deps.append(idx - delta)
            rank.add_op(Op(kind, size, peer=peer, tag=tag, cpu=cpu), deps)
    assert pos == len(data)
    return schedule


class ListScheduler(GoalScheduler):
    """The old scheduling walk: Op objects, nested successor lists, per-run tables."""

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

    def _on_complete(self, time, payload):
        rank, op_id = payload
        vertex = op_id - self._offsets[rank]
        self._completed += 1
        self._rank_finish[rank] = max(self._rank_finish[rank], time)
        indegree = self._list_indegree[rank]
        for succ in self._list_succ[rank][vertex]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                self._issue(rank, succ, time)


def to_oracle(schedule):
    """Replay a columnar schedule, read through its views, into the oracle."""
    oracle = ListSchedule(schedule.num_ranks, schedule.name)
    for rank, ref in zip(schedule.ranks, oracle.ranks):
        for op, deps in zip(rank.ops, rank.preds):
            ref.add_op(op, deps)
    return oracle


def views(schedule):
    """Everything compared of a schedule, as plain values."""
    return {
        "num_ranks": schedule.num_ranks,
        "summary": schedule.summary(),
        "ranks": [
            (
                rank.rank,
                list(rank.ops),
                [list(deps) for deps in rank.preds],
                rank.successors(),
                rank.in_degrees(),
                rank.roots(),
                rank.leaves(),
                rank.critical_path_ns(),
            )
            for rank in schedule.ranks
        ],
    }


def generated(build):
    """``build()``'s columnar schedule, and the oracle fed the very appends
    (``append_op``, ``append_sendrecv``, ``extend``) its generator made."""
    fed = {}
    real_op, real_round, real_block = (
        RankSchedule.append_op, RankSchedule.append_sendrecv, RankSchedule.extend
    )

    def ref(rank):
        return fed.setdefault(id(rank), (rank, ListRank(rank.rank)))[1]

    def spy_op(self, kind, size, peer=None, tag=0, cpu=0, requires=()):
        ref(self).add_op(Op(kind, size, peer, tag, cpu), requires)
        return real_op(self, kind, size, peer, tag, cpu, requires)

    def spy_round(self, send_size, dst, recv_size, src, tag=0, cpu=0, requires=()):
        oracle, first = ref(self), len(self)
        oracle.add_op(Op.send(send_size, dst, tag, cpu), requires)
        oracle.add_op(Op.recv(recv_size, src, tag, cpu), requires)
        oracle.add_op(Op.calc(0, cpu), (first, first + 1))
        return real_round(self, send_size, dst, recv_size, src, tag, cpu, requires)

    def spy_block(self, kind, size, peer, tag, cpu, pred_ptr, pred_idx):
        oracle, first = ref(self), len(self)
        ptr, idx = list(pred_ptr), list(pred_idx)
        rows = zip(*(np.asarray(column).tolist() for column in (kind, size, peer, tag, cpu)))
        for v, (k, n, p, t, c) in enumerate(rows):
            deps = [first + d for d in idx[ptr[v] : ptr[v + 1]]]
            oracle.add_op(Op(k, n, None if k == OpType.CALC else p, t, c), deps)
        return real_block(self, kind, size, peer, tag, cpu, pred_ptr, pred_idx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RankSchedule, "append_op", spy_op)
        patch.setattr(RankSchedule, "append_sendrecv", spy_round)
        patch.setattr(RankSchedule, "extend", spy_block)
        columnar = build()
    oracle = ListSchedule(columnar.num_ranks, columnar.name)
    oracle.ranks = [fed[id(rank)][1] if id(rank) in fed else ListRank(rank.rank) for rank in columnar.ranks]
    return columnar, oracle


def list_group_ranks_into_nodes(schedule, node_of, ns_per_byte=1.0 / 150.0, latency_ns=700, stream_stride=16, name=None):
    """Stage-4 grouping as it stood before the columnar rewrite: one merged
    DAG per node over ``(rank, vertex)`` keys, re-emitted one ``append_op`` at
    a time.  ``node_of`` is the explicit rank -> node map (checks are the real
    function's)."""
    members = defaultdict(list)
    for r, node in enumerate(node_of):
        members[node].append(r)
    local_index = {r: members[node_of[r]].index(r) for r in range(schedule.num_ranks)}
    intra_pairs = _list_pair_intra_node_messages(schedule, node_of)
    merged = GoalSchedule(max(node_of) + 1, name=name or f"{schedule.name}-grouped")
    for node in range(merged.num_ranks):
        if members.get(node):
            _list_emit_node(
                merged, schedule, node, members[node], node_of, local_index, intra_pairs,
                ns_per_byte, latency_ns, stream_stride,
            )
    return merged


def _list_pair_intra_node_messages(schedule, node_of):
    """``(rank, vertex) -> (peer_rank, peer_vertex)`` both ways for every
    intra-node send/recv pair, FIFO per ``(src, dst, tag)`` channel."""
    sends, recvs = defaultdict(deque), defaultdict(deque)
    for rank in schedule.ranks:
        me = rank.rank
        for vertex, (kind, peer, tag) in enumerate(zip(rank.kind, rank.peer, rank.tag)):
            if kind == OpType.CALC or node_of[me] != node_of[peer]:
                continue
            if kind == OpType.SEND:
                sends[(me, peer, tag)].append(vertex)
            else:
                recvs[(peer, me, tag)].append(vertex)
    pairs = {}
    for channel, send_list in sends.items():
        src, dst, _tag = channel
        recv_list = recvs.get(channel, deque())
        while send_list and recv_list:
            sv, rv = send_list.popleft(), recv_list.popleft()
            pairs[(src, sv)] = (dst, rv)
            pairs[(dst, rv)] = (src, sv)
    return pairs


def _list_emit_node(merged, schedule, node, node_ranks, node_of, local_index, intra_pairs,
                    ns_per_byte, latency_ns, stream_stride):
    """Topologically merge the DAGs of ``node_ranks`` into ``merged.ranks[node]``."""
    node_set = set(node_ranks)
    indegree, successors = {}, defaultdict(list)
    ranks = schedule.ranks
    preds = {r: list(ranks[r].preds) for r in node_ranks}
    for r in node_ranks:
        for vertex, deps in enumerate(preds[r]):
            key = (r, vertex)
            indegree[key] = len(deps)
            for d in deps:
                successors[(r, d)].append(key)
    # cross edges from intra-node send -> matching recv
    for (r, vertex), (peer_rank, peer_vertex) in intra_pairs.items():
        if r not in node_set or ranks[r].kind[vertex] != OpType.SEND:
            continue
        key = (peer_rank, peer_vertex)
        if key in indegree:
            indegree[key] += 1
            successors[(r, vertex)].append(key)
    # Kahn's algorithm with deterministic ordering (rank, vertex)
    ready_q = deque(sorted(key for key, deg in indegree.items() if deg == 0))
    append_op = merged.ranks[node].append_op
    new_index = {}
    emitted = 0
    while ready_q:
        key = ready_q.popleft()
        r, vertex = key
        rank = ranks[r]
        kind, size, peer = rank.kind[vertex], rank.size[vertex], rank.peer[vertex]
        dep_keys = [(r, d) for d in preds[r][vertex]]
        pair = intra_pairs.get(key)
        is_intra = kind != OpType.CALC and node_of[peer] == node
        if is_intra and pair is not None and kind == OpType.RECV:
            dep_keys.append(pair)
        new_deps = [new_index[d] for d in dep_keys if d in new_index]
        new_cpu = local_index[r] * stream_stride + rank.cpu[vertex]
        if is_intra:
            cost = latency_ns + int(round(size * ns_per_byte)) if kind == OpType.SEND else 0
            new_index[key] = append_op(OpType.CALC, cost, None, 0, new_cpu, new_deps)
        elif kind == OpType.CALC:
            new_index[key] = append_op(OpType.CALC, size, None, 0, new_cpu, new_deps)
        else:
            new_index[key] = append_op(kind, size, node_of[peer], rank.tag[vertex], new_cpu, new_deps)
        emitted += 1
        for succ in successors.get(key, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready_q.append(succ)
    total = sum(len(schedule.ranks[r]) for r in node_ranks)
    if emitted != total:
        raise RuntimeError(
            f"node {node}: grouping produced a cyclic dependency "
            f"({emitted} of {total} vertices emitted); the intra-node message "
            "pairing is inconsistent with the per-rank orderings"
        )
