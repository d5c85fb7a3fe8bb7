"""Stage-4 grouping against the pass it replaced, byte for byte.

``group_ranks_into_nodes`` builds each node's merged DAG over integer ids and
appends it as whole columns; ``schedule_oracle.list_group_ranks_into_nodes``
is the old tuple-keyed pass that re-emitted one ``append_op`` per vertex.
Both must give the same ``encode_goal`` bytes, and the same error, on random
per-GPU schedules: contiguous and non-contiguous node maps, several streams
per rank, repeated channels, unmatched intra-node sends and receives, calcs
with a tag, and transfer costs that land on ``.5`` (rounded half to even).
"""
import random

import pytest
from schedule_oracle import list_group_ranks_into_nodes

from repro.goal import GoalSchedule, OpType, encode_goal, validate_schedule
from repro.schedgen.grouping import group_ranks_into_nodes

#: name -> (ranks_per_node or None, rank -> node map)
LAYOUTS = {
    "per-node-1": (1, [0, 1, 2, 3, 4]),
    "per-node-2": (2, [0, 0, 1, 1, 2, 2, 3, 3]),
    "per-node-3": (3, [0, 0, 0, 1, 1, 1, 2]),
    "per-node-4": (4, [0, 0, 0, 0, 1, 1, 1, 1]),
    "interleaved": (None, [2, 0, 1, 0, 2, 1, 0]),
    "empty-node": (None, [3, 0, 3, 0, 3, 0]),
}
#: name -> (ns per byte, latency ns, odd sizes)
COSTS = {"nvlink": (1.0 / 150.0, 700, False), "half": (0.5, 0, True)}
STREAM_STRIDE = 4


def _random_schedule(seed, num_ranks, odd_sizes):
    """Messages in one global program order: a message's receive is appended
    right after its send, so every cross edge of the FIFO pairing points
    forward in that order and the merged DAG is acyclic."""
    rng = random.Random(seed)
    schedule = GoalSchedule(num_ranks, name=f"random-{seed}")
    ranks = schedule.ranks
    unmatched_tag = 1000

    def deps(r):
        n = len(ranks[r])
        return rng.sample(range(n), min(n, rng.randint(0, 2)))

    def size():
        return 2 * rng.randint(0, 500) + 1 if odd_sizes else rng.choice((1, 7, 4096, rng.randint(1, 1 << 22)))

    for _ in range(24 * num_ranks):
        r = rng.randrange(num_ranks)
        cpu = rng.randrange(STREAM_STRIDE)
        draw = rng.random()
        if draw < 0.3:
            ranks[r].append_op(OpType.CALC, rng.randint(0, 5000), None, rng.choice((0, 0, 9)), cpu, deps(r))
        elif draw < 0.85:
            peer = rng.choice([p for p in range(num_ranks) if p != r])
            tag, nbytes = rng.randrange(3), size()
            ranks[r].append_op(OpType.SEND, nbytes, peer, tag, cpu, deps(r))
            ranks[peer].append_op(OpType.RECV, nbytes, r, tag, rng.randrange(STREAM_STRIDE), deps(peer))
        else:
            # a surplus send may share a channel (it shifts the FIFO pairing of
            # the later sends, forward in program order); a surplus receive may
            # not (it could pair with a later send and close a cycle)
            peer = rng.choice([p for p in range(num_ranks) if p != r])
            unmatched_tag += 1
            kind = rng.choice((OpType.SEND, OpType.RECV))
            tag = rng.choice((rng.randrange(3), unmatched_tag)) if kind == OpType.SEND else unmatched_tag
            ranks[r].append_op(kind, size(), peer, tag, cpu, deps(r))
    return schedule


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", range(4))
def test_grouping_matches_oracle(seed, layout, costs):
    per_node, node_of = LAYOUTS[layout]
    ns_per_byte, latency_ns, odd_sizes = COSTS[costs]
    schedule = _random_schedule(seed, len(node_of), odd_sizes)
    spec = {"ranks_per_node": per_node} if per_node else {"node_of": node_of}
    grouped = group_ranks_into_nodes(
        schedule, intra_node_ns_per_byte=ns_per_byte, intra_node_latency_ns=latency_ns,
        stream_stride=STREAM_STRIDE, **spec,
    )
    oracle = list_group_ranks_into_nodes(schedule, node_of, ns_per_byte, latency_ns, STREAM_STRIDE)
    assert encode_goal(grouped) == encode_goal(oracle)
    assert grouped.num_ops() == schedule.num_ops()
    validate_schedule(grouped, check_matching=False)  # unmatched inter-node ops stay unmatched


def test_half_transfer_costs_round_to_even():
    schedule = GoalSchedule(2)
    for nbytes in (1, 3, 5, 7):
        schedule.ranks[0].append_op(OpType.SEND, nbytes, 1, 0)
        schedule.ranks[1].append_op(OpType.RECV, nbytes, 0, 0)
    grouped = group_ranks_into_nodes(schedule, ranks_per_node=2, intra_node_ns_per_byte=0.5,
                                     intra_node_latency_ns=0)
    # 0.5, 1.5, 2.5, 3.5 -> 0, 2, 2, 4; the receives cost nothing
    assert sorted(grouped.ranks[0].size) == [0, 0, 0, 0, 0, 2, 2, 4]
    assert encode_goal(grouped) == encode_goal(list_group_ranks_into_nodes(schedule, [0, 0], 0.5, 0))


def test_negative_node_names_the_rank():
    schedule = GoalSchedule(3)
    for rank in schedule.ranks:
        rank.append_op(OpType.CALC, 10)
    with pytest.raises(ValueError, match=r"^node_of\[1\] is -1: rank 1 needs a node >= 0$"):
        group_ranks_into_nodes(schedule, node_of=[0, -1, 1])


def test_cyclic_pairing_names_the_node():
    # on node 1, each rank receives before it sends what the other receives
    schedule = GoalSchedule(4)
    for me, peer, first, second in ((2, 3, 1, 2), (3, 2, 2, 1)):
        recv = schedule.ranks[me].append_op(OpType.RECV, 8, peer, first)
        schedule.ranks[me].append_op(OpType.SEND, 8, peer, second, 0, (recv,))
    errors = []
    for group in (
        lambda: group_ranks_into_nodes(schedule, ranks_per_node=2),
        lambda: list_group_ranks_into_nodes(schedule, [0, 0, 1, 1]),
    ):
        with pytest.raises(RuntimeError, match="^node 1: grouping produced a cyclic dependency") as err:
            group()
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert "(0 of 4 vertices emitted)" in errors[0]
