"""Stage-4 grouping: merge per-GPU DAGs into per-node DAGs.

The paper's final GOAL-generation stage (§3.1.2, Stage 4) combines the DAGs
of all GPUs of a node into a single DAG per node and replaces sends/receives
between GPUs of the *same* node with ``calc`` vertices, since intra-node
traffic (NVLink) never reaches the inter-node fabric.  The same machinery is
reused for "what-if" regroupings (e.g. re-simulating an 8-GPU/2-node trace as
a 4-node, 2-GPU setup).

This module implements the transformation on arbitrary GOAL schedules:

* ranks are grouped according to a rank→node map,
* every op keeps its compute stream, shifted by ``rank_local_index *
  stream_stride`` so different GPUs of a node occupy disjoint streams (they
  execute concurrently),
* matching intra-node send/recv pairs (paired FIFO per ``(src, dst, tag)``
  channel) are replaced by ``calc`` vertices: the send pays the intra-node
  transfer cost (``latency + size * ns_per_byte``), the receive becomes a
  zero-cost vertex that *depends on* the send — preserving the
  synchronisation the message provided,
* inter-node sends/receives keep their semantics with peers remapped to node
  ids,
* the merged DAG is emitted in a topological order so the GOAL
  definition-before-use invariant holds.
"""
from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.goal.ops import _CALC, _RECV, _SEND
from repro.goal.schedule import GoalSchedule


def group_ranks_into_nodes(
    schedule: GoalSchedule,
    ranks_per_node: Optional[int] = None,
    node_of: Optional[Sequence[int]] = None,
    intra_node_ns_per_byte: float = 1.0 / 150.0,
    intra_node_latency_ns: int = 700,
    stream_stride: int = 16,
    name: Optional[str] = None,
) -> GoalSchedule:
    """Group the ranks of ``schedule`` into nodes and return the node-level schedule.

    Parameters
    ----------
    schedule:
        The per-GPU (or generally fine-grained) schedule.
    ranks_per_node:
        Group consecutive ranks in blocks of this size (mutually exclusive
        with ``node_of``).
    node_of:
        Explicit rank→node map (one entry per rank of ``schedule``).
    intra_node_ns_per_byte:
        Cost per byte of an intra-node transfer (default 1/150 ns/B =
        150 GB/s, the GH200 NVLink bandwidth quoted in the paper).
    intra_node_latency_ns:
        Fixed latency of an intra-node transfer.
    stream_stride:
        Compute-stream offset between co-located ranks; must exceed the
        largest stream index used by any single rank.
    name:
        Name of the resulting schedule.
    """
    if (ranks_per_node is None) == (node_of is None):
        raise ValueError("specify exactly one of ranks_per_node / node_of")
    if node_of is None:
        if ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        node_of = [r // ranks_per_node for r in range(schedule.num_ranks)]
    else:
        node_of = list(node_of)
        if len(node_of) != schedule.num_ranks:
            raise ValueError("node_of must have one entry per rank")
    num_nodes = max(node_of) + 1

    for rank in schedule.ranks:
        if len(rank) and max(rank.cpu) >= stream_stride:
            raise ValueError(
                f"rank {rank.rank} uses compute stream "
                f"{next(cpu for cpu in rank.cpu if cpu >= stream_stride)} >= stream_stride "
                f"{stream_stride}; increase stream_stride"
            )

    # per node: member ranks in order, and each rank's local index
    members: Dict[int, List[int]] = defaultdict(list)
    for r, node in enumerate(node_of):
        members[node].append(r)
    local_index = {r: members[node_of[r]].index(r) for r in range(schedule.num_ranks)}

    # pair up intra-node send/recv ops: channel -> FIFO lists of vertices
    intra_pairs = _pair_intra_node_messages(schedule, node_of)

    merged = GoalSchedule(num_nodes, name=name or f"{schedule.name}-grouped")

    for node in range(num_nodes):
        node_ranks = members.get(node, [])
        if not node_ranks:
            continue
        _emit_node(
            merged,
            schedule,
            node,
            node_ranks,
            node_of,
            local_index,
            intra_pairs,
            intra_node_ns_per_byte,
            intra_node_latency_ns,
            stream_stride,
        )
    return merged


def _pair_intra_node_messages(
    schedule: GoalSchedule, node_of: Sequence[int]
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Match intra-node sends with their receives.

    Returns a map ``(rank, vertex) -> (peer_rank, peer_vertex)`` defined for
    both directions of every matched pair.  Unmatched intra-node comm ops are
    simply absent from the map (they degrade to plain calcs).
    """
    sends: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
    recvs: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
    for rank in schedule.ranks:
        me = rank.rank
        for vertex, (kind, peer, tag) in enumerate(zip(rank.kind, rank.peer, rank.tag)):
            if kind == _CALC or node_of[me] != node_of[peer]:
                continue
            if kind == _SEND:
                sends[(me, peer, tag)].append(vertex)
            else:
                recvs[(peer, me, tag)].append(vertex)

    pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for channel, send_list in sends.items():
        src, dst, _tag = channel
        recv_list = recvs.get(channel, deque())
        while send_list and recv_list:
            sv = send_list.popleft()
            rv = recv_list.popleft()
            pairs[(src, sv)] = (dst, rv)
            pairs[(dst, rv)] = (src, sv)
    return pairs


def _emit_node(
    merged: GoalSchedule,
    schedule: GoalSchedule,
    node: int,
    node_ranks: List[int],
    node_of: Sequence[int],
    local_index: Dict[int, int],
    intra_pairs: Dict[Tuple[int, int], Tuple[int, int]],
    ns_per_byte: float,
    latency_ns: int,
    stream_stride: int,
) -> None:
    """Topologically merge the DAGs of ``node_ranks`` into ``merged.ranks[node]``."""
    # Build the merged dependency graph over (rank, vertex) pairs.
    node_set = set(node_ranks)
    indegree: Dict[Tuple[int, int], int] = {}
    successors: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)

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
        if r not in node_set or ranks[r].kind[vertex] != _SEND:
            continue
        key = (peer_rank, peer_vertex)
        if key in indegree:
            indegree[key] += 1
            successors[(r, vertex)].append(key)

    # Kahn's algorithm with deterministic ordering (rank, vertex)
    ready = sorted(key for key, deg in indegree.items() if deg == 0)
    ready_q = deque(ready)
    append_op = merged.ranks[node].append_op
    new_index: Dict[Tuple[int, int], int] = {}
    emitted = 0

    while ready_q:
        key = ready_q.popleft()
        r, vertex = key
        rank = ranks[r]
        kind, size, peer = rank.kind[vertex], rank.size[vertex], rank.peer[vertex]
        # translate dependencies (original preds + cross edge for paired recvs)
        dep_keys = [(r, d) for d in preds[r][vertex]]
        pair = intra_pairs.get(key)
        is_intra = kind != _CALC and node_of[peer] == node
        if is_intra and pair is not None and kind == _RECV:
            dep_keys.append(pair)
        new_deps = [new_index[d] for d in dep_keys if d in new_index]

        new_cpu = local_index[r] * stream_stride + rank.cpu[vertex]
        if is_intra:
            # the send pays the intra-node transfer, the receive only waits for it
            cost = latency_ns + int(round(size * ns_per_byte)) if kind == _SEND else 0
            new_index[key] = append_op(_CALC, cost, None, 0, new_cpu, new_deps)
        elif kind == _CALC:
            new_index[key] = append_op(_CALC, size, None, 0, new_cpu, new_deps)
        else:
            new_index[key] = append_op(
                kind, size, node_of[peer], rank.tag[vertex], new_cpu, new_deps
            )
        emitted += 1

        for succ in successors.get(key, ()):  # unlock successors
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
