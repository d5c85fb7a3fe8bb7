"""Randomized round-trip property tests for the GOAL codecs.

A seeded RNG generates random schedules — random op mixes, sizes, tags,
compute streams and backward dependency edges — and asserts the
parse/write and encode/decode *fixpoints*:

* text:   ``parse(write(s))`` is structurally equal to ``s``, and
  ``write(parse(write(s)))`` is byte-identical to ``write(s)``,
* binary: ``decode(encode(s))`` is structurally equal to ``s``, and
  ``encode(decode(encode(s)))`` is byte-identical to ``encode(s)``,
* cross:  text and binary round trips agree with each other.

Structural equality compares op fields (kind/size/peer/tag/cpu — exactly
``Op.__eq__``) and dependency lists.  Deliberate edge cases ride along: dense
dependency chains, comment/whitespace injection, and empty ranks.
"""
import random

import pytest

from repro.goal import (
    GoalSchedule,
    Op,
    decode_goal,
    encode_goal,
    parse_goal,
    write_goal,
)

NUM_RANDOM_SCHEDULES = 30


def _random_schedule(rng: random.Random) -> GoalSchedule:
    """One random GOAL schedule (not necessarily send/recv matched)."""
    num_ranks = rng.randint(1, 5)
    sched = GoalSchedule(num_ranks, name=f"prop-{rng.randrange(1 << 16)}")
    for rank in sched.ranks:
        for idx in range(rng.randint(0, 12)):
            kind = rng.choice(("send", "recv", "calc"))
            cpu = rng.choice((0, 0, 0, 1, 2, 7))
            if kind == "calc":
                op = Op.calc(rng.randrange(0, 1 << 20), cpu=cpu)
            else:
                peer = rng.randrange(num_ranks)
                size = rng.randrange(1, 1 << 22)
                tag = rng.choice((0, 0, rng.randrange(1, 1 << 16)))
                if kind == "send":
                    op = Op.send(size, dst=peer, tag=tag, cpu=cpu)
                else:
                    op = Op.recv(size, src=peer, tag=tag, cpu=cpu)
            # random backward dependencies (0..3 distinct earlier vertices)
            deps = rng.sample(range(idx), k=min(idx, rng.randint(0, 3)))
            rank.add_op(op, deps)
    return sched


def _assert_structurally_equal(a: GoalSchedule, b: GoalSchedule) -> None:
    assert a.num_ranks == b.num_ranks
    for rank_a, rank_b in zip(a.ranks, b.ranks):
        assert rank_a.ops == rank_b.ops
        assert rank_a.preds == rank_b.preds


@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCHEDULES))
def test_text_roundtrip_fixpoint(seed):
    sched = _random_schedule(random.Random(seed))
    text = write_goal(sched)
    parsed = parse_goal(text)
    _assert_structurally_equal(sched, parsed)
    # write is a fixpoint of parse∘write
    assert write_goal(parsed) == text


@pytest.mark.parametrize("seed", range(NUM_RANDOM_SCHEDULES))
def test_binary_roundtrip_fixpoint(seed):
    sched = _random_schedule(random.Random(1000 + seed))
    blob = encode_goal(sched)
    decoded = decode_goal(blob)
    _assert_structurally_equal(sched, decoded)
    assert encode_goal(decoded) == blob


@pytest.mark.parametrize("seed", range(10))
def test_text_and_binary_roundtrips_agree(seed):
    sched = _random_schedule(random.Random(2000 + seed))
    via_text = parse_goal(write_goal(sched))
    via_binary = decode_goal(encode_goal(sched))
    _assert_structurally_equal(via_text, via_binary)


@pytest.mark.parametrize("seed", range(10))
def test_comment_and_whitespace_injection(seed):
    """Random comments and blank lines never change what parses."""
    rng = random.Random(3000 + seed)
    sched = _random_schedule(rng)
    clean = write_goal(sched)
    noisy_lines = []
    for line in clean.splitlines():
        if rng.random() < 0.3:
            noisy_lines.append(rng.choice(("# noise", "// noise", "", "   ")))
        # trailing comments on op/dependency lines (not on brace lines,
        # which the writer emits bare anyway)
        if line.strip() and rng.random() < 0.3:
            line = line + rng.choice(("  # tail", "  // tail"))
        noisy_lines.append(line)
    parsed = parse_goal("\n".join(noisy_lines))
    _assert_structurally_equal(sched, parsed)


@pytest.mark.parametrize("seed", range(10))
def test_dependency_edges_survive_roundtrip(seed):
    """Dense random dependency chains survive both codecs exactly."""
    rng = random.Random(4000 + seed)
    sched = GoalSchedule(1, name="chains")
    rank = sched.ranks[0]
    n = rng.randint(5, 40)
    for idx in range(n):
        k = min(idx, rng.randint(0, idx))
        rank.add_op(Op.calc(idx), rng.sample(range(idx), k=k))
    _assert_structurally_equal(sched, parse_goal(write_goal(sched)))
    _assert_structurally_equal(sched, decode_goal(encode_goal(sched)))


def test_empty_ranks_roundtrip():
    """Ranks with no ops (idle nodes of a placement) survive both codecs."""
    sched = GoalSchedule(4, name="sparse")
    sched.ranks[2].add_op(Op.calc(9))
    _assert_structurally_equal(sched, decode_goal(encode_goal(sched)))
    parsed = parse_goal(write_goal(sched))
    assert parsed.num_ranks == 4
    _assert_structurally_equal(sched, parsed)
