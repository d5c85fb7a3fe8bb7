"""Synthetic microbenchmark workloads.

These are the traffic patterns that "many impactful networking studies
primarily rely on" (paper §1): incast, permutation and all-to-all, plus a
bare ring-allreduce pattern.  The paper's Fig. 1(C) uses two of them (incast
and permutation) as the contrast against the realistic LLM-training trace,
so they are first-class citizens of the toolchain even though its whole
point is that they are not sufficient on their own.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.collectives import mpi as calgs
from repro.collectives.context import CollectiveContext
from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule


def incast(
    num_ranks: int,
    message_size: int,
    receiver: int = 0,
    senders: Optional[Sequence[int]] = None,
    messages_per_sender: int = 1,
    name: str = "incast",
) -> GoalSchedule:
    """All senders transmit ``message_size`` bytes to one receiver simultaneously.

    Parameters
    ----------
    num_ranks:
        Total ranks in the schedule.
    message_size:
        Bytes each sender transmits per message.
    receiver:
        Rank receiving everything.
    senders:
        Sending ranks; defaults to every rank except the receiver.
    messages_per_sender:
        Back-to-back messages each sender transmits (chained).
    """
    if not (0 <= receiver < num_ranks):
        raise ValueError("receiver out of range")
    builder = GoalBuilder(num_ranks, name=name)
    sender_list = list(senders) if senders is not None else [r for r in range(num_ranks) if r != receiver]
    if receiver in sender_list:
        raise ValueError("receiver cannot also be a sender")
    rb = builder.rank(receiver)
    for s in sender_list:
        sb = builder.rank(s)
        prev_send = None
        prev_recv = None
        for m in range(messages_per_sender):
            tag = s * 1_000 + m
            prev_send = sb.send(
                message_size, dst=receiver, tag=tag, requires=[prev_send] if prev_send is not None else []
            )
            prev_recv = rb.recv(
                message_size, src=s, tag=tag, requires=[prev_recv] if prev_recv is not None else []
            )
    return builder.build()


def permutation(
    num_ranks: int,
    message_size: int,
    seed: int = 0,
    messages_per_rank: int = 1,
    name: str = "permutation",
) -> GoalSchedule:
    """Every rank sends to exactly one other rank under a random derangement."""
    if num_ranks < 2:
        raise ValueError("permutation needs at least 2 ranks")
    rng = np.random.default_rng(seed)
    # random derangement by rejection (fast for any practical size)
    while True:
        perm = rng.permutation(num_ranks)
        if not np.any(perm == np.arange(num_ranks)):
            break
    builder = GoalBuilder(num_ranks, name=name)
    for src in range(num_ranks):
        dst = int(perm[src])
        sb = builder.rank(src)
        db = builder.rank(dst)
        prev_s = None
        prev_r = None
        for m in range(messages_per_rank):
            tag = src * 1_000 + m
            prev_s = sb.send(message_size, dst=dst, tag=tag, requires=[prev_s] if prev_s is not None else [])
            prev_r = db.recv(message_size, src=src, tag=tag, requires=[prev_r] if prev_r is not None else [])
    return builder.build()


def all_to_all(num_ranks: int, per_pair_size: int, name: str = "all-to-all") -> GoalSchedule:
    """Full-mesh exchange: every rank sends ``per_pair_size`` bytes to every other rank."""
    if per_pair_size < 0:
        raise ValueError(f"per_pair_size must be non-negative, got {per_pair_size}")
    builder = GoalBuilder(num_ranks, name=name)
    ctx = CollectiveContext(builder, list(range(num_ranks)))
    calgs.pairwise_alltoall(ctx, per_pair_size)
    return builder.build()


def ring_allreduce_microbenchmark(
    num_ranks: int, buffer_size: int, repetitions: int = 1, name: str = "ring-allreduce"
) -> GoalSchedule:
    """Back-to-back ring allreduces of ``buffer_size`` bytes (no compute)."""
    if buffer_size < 0:
        raise ValueError(f"buffer_size must be non-negative, got {buffer_size}")
    builder = GoalBuilder(num_ranks, name=name)
    ctx = CollectiveContext(builder, list(range(num_ranks)))
    deps = None
    for _ in range(repetitions):
        deps = calgs.ring_allreduce(ctx, buffer_size, deps)
    return builder.build()


def uniform_random_pairs(
    num_ranks: int,
    num_messages: int,
    message_size: int,
    seed: int = 0,
    name: str = "uniform-random",
) -> GoalSchedule:
    """``num_messages`` messages between uniformly random (src, dst) pairs."""
    if num_ranks < 2:
        raise ValueError("need at least 2 ranks")
    rng = np.random.default_rng(seed)
    builder = GoalBuilder(num_ranks, name=name)
    last_send = [None] * num_ranks
    last_recv = [None] * num_ranks
    for m in range(num_messages):
        src = int(rng.integers(num_ranks))
        dst = int(rng.integers(num_ranks - 1))
        if dst >= src:
            dst += 1
        tag = m
        sb = builder.rank(src)
        db = builder.rank(dst)
        last_send[src] = sb.send(
            message_size, dst=dst, tag=tag, requires=[last_send[src]] if last_send[src] is not None else []
        )
        last_recv[dst] = db.recv(
            message_size, src=src, tag=tag, requires=[last_recv[dst]] if last_recv[dst] is not None else []
        )
    return builder.build()
