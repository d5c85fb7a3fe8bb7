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

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.goal.ops import _CALC, _RECV, _SEND, checked_value
from repro.goal.schedule import GoalSchedule, RankSchedule, csr_from_edges, edge_owners, stack_ranks


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
        Explicit rank→node map (one entry per rank of ``schedule``, each
        ``>= 0``).
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
        for rank, node in enumerate(node_of):
            if node < 0:
                raise ValueError(f"node_of[{rank}] is {node}: rank {rank} needs a node >= 0")
    num_nodes = max(node_of) + 1

    for rank in schedule.ranks:
        if len(rank) and max(rank.cpu) >= stream_stride:
            raise ValueError(
                f"rank {rank.rank} uses compute stream "
                f"{next(cpu for cpu in rank.cpu if cpu >= stream_stride)} >= stream_stride "
                f"{stream_stride}; increase stream_stride"
            )

    # per node: member ranks in order (a rank's place is its local index)
    members: Dict[int, List[int]] = defaultdict(list)
    for r, node in enumerate(node_of):
        members[node].append(r)

    merged = GoalSchedule(num_nodes, name=name or f"{schedule.name}-grouped")
    node_map = np.asarray(node_of, dtype=np.int64)
    for node in range(num_nodes):
        if members.get(node):
            _emit_node(
                merged.ranks[node], [schedule.ranks[r] for r in members[node]], node, node_map,
                intra_node_ns_per_byte, intra_node_latency_ns, stream_stride,
            )
    return merged


def _intra_pairs(
    kind: np.ndarray, peer: np.ndarray, tag: np.ndarray, me: np.ndarray, intra: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Match the node's intra-node sends with their receives; return ``(send, recv)`` ids.

    A channel is ``(source rank, destination rank, tag)``; its k-th send (in
    vertex order) pairs with its k-th receive.  Unmatched ops are left out
    (they degrade to plain calcs).
    """
    ids = np.flatnonzero(intra)
    if not len(ids):
        return ids, ids
    is_recv = kind[ids] == _RECV
    src = np.where(is_recv, peer[ids], me[ids])
    dst = np.where(is_recv, me[ids], peer[ids])
    # channel by channel: its sends in vertex order, then its receives
    order = np.lexsort((ids, is_recv, tag[ids], dst, src))
    ids, is_recv, src, dst, chan_tag = (a[order] for a in (ids, is_recv, src, dst, tag[ids]))
    starts = np.ones(len(ids), dtype=bool)
    starts[1:] = (np.diff(src) != 0) | (np.diff(dst) != 0) | (np.diff(chan_tag) != 0)
    channel = np.cumsum(starts) - 1
    sends = np.bincount(channel[~is_recv], minlength=channel[-1] + 1)[channel]
    recvs = np.bincount(channel[is_recv], minlength=channel[-1] + 1)[channel]
    k = np.arange(len(ids)) - np.flatnonzero(starts)[channel]  # place among the channel's sends
    send_at = np.flatnonzero(~is_recv & (k < recvs))
    return ids[send_at], ids[send_at + sends[send_at]]


def _emit_node(
    out: RankSchedule, node_ranks: List[RankSchedule], node: int, node_of: np.ndarray,
    ns_per_byte: float, latency_ns: int, stream_stride: int,
) -> None:
    """Topologically merge the DAGs of ``node_ranks`` (in local order) into ``out``.

    Vertex ``g`` of the node is the ``g``-th of the ranks' vertices end to end,
    so ascending ids are the ``(local rank, vertex)`` order.  The merged graph
    is each rank's own DAG plus one edge from every paired intra-node send to
    its receive; Kahn's algorithm releases vertices first-in first-out, the
    roots in id order and each vertex's successors with its own (ascending)
    before the cross edge.
    """
    col = stack_ranks(node_ranks)
    n = len(col.kind)
    if not n:
        return
    owner = edge_owners(col.degree)
    pred = col.dep + (owner - col.vertex[owner])  # node ids: a rank's first vertex is g - vertex
    peer_node = node_of[col.peer.astype(np.int64)]  # a calc's stored peer is 0
    comm = col.kind != _CALC
    intra = comm & (peer_node == node)
    me = np.array([rank.rank for rank in node_ranks], dtype=np.uint64)[col.rank_of]
    send, recv = _intra_pairs(col.kind, col.peer, col.tag, me, intra)

    # successor CSR: own successors ascending, then the cross edge
    row = np.concatenate((pred, send))
    succ = np.concatenate((owner, recv))
    by_row = np.lexsort((succ, np.arange(len(row)) >= len(pred), row))
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=succ_ptr[1:])
    succ_ptr, succ_idx = succ_ptr.tolist(), succ[by_row].tolist()
    indegree = (col.degree + np.bincount(recv, minlength=n)).tolist()

    order = [v for v, d in enumerate(indegree) if not d]
    for v in order:  # the list is its own FIFO queue
        for s in succ_idx[succ_ptr[v] : succ_ptr[v + 1]]:
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    if len(order) != n:
        raise RuntimeError(
            f"node {node}: grouping produced a cyclic dependency "
            f"({len(order)} of {n} vertices emitted); the intra-node message "
            "pairing is inconsistent with the per-rank orderings"
        )

    # the node's columns in emission order: intra-node comm becomes a calc, the
    # send paying the transfer (latency + size * ns_per_byte), the receive
    # waiting for it; other comm ops keep their tag and name the peer's node
    order = np.asarray(order, dtype=np.int64)
    new_of = np.empty(n, dtype=np.int64)
    new_of[order] = np.arange(n)
    inter = comm & ~intra
    size = np.where(intra, 0, col.size)
    pays = intra & (col.kind == _SEND)
    size[pays] = [
        checked_value("op size", latency_ns + int(round(b * ns_per_byte))) for b in col.size[pays].tolist()
    ]
    cpu = col.rank_of.astype(np.uint64) * np.uint64(stream_stride) + col.cpu
    ptr, idx = csr_from_edges(
        n, new_of[np.concatenate((owner, recv))], new_of[np.concatenate((pred, send))]
    )
    out.extend(
        np.where(intra, _CALC, col.kind)[order], size[order], np.where(inter, peer_node, 0)[order],
        np.where(inter, col.tag, 0)[order], cpu[order], ptr, idx,
    )
