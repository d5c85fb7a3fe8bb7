"""Differential and malformed-input tests for the two GOAL codecs.

Binary: the vectorised varint codec in :mod:`repro.goal.binary` is compared
with the scalar per-byte codec it replaced, which lives on as the oracle in
``tests/schedule_oracle.py`` (deliberately not imported from ``src``).  The
layout is pinned by a golden blob, and no malformed blob may escape as
anything but :class:`GoalBinaryError`.

Text: every error class of :func:`parse_goal` keeps its message and line
number, and every spelling the regex grammar accepted is still accepted by
the tokenizer.
"""
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.goal import GoalParseError, decode_goal, encode_goal, parse_goal, write_goal, write_goal_binary
from repro.goal import binary
from repro.goal.binary import GoalBinaryError
from repro.goal.ops import Op, OpType
from repro.goal.schedule import GoalSchedule
from schedule_oracle import list_decode_goal, list_encode_goal
from test_goal_binary import _sample_schedule


def _same(a: GoalSchedule, b: GoalSchedule) -> bool:
    return (
        a.name == b.name
        and a.num_ranks == b.num_ranks
        and all(x.ops == y.ops and x.preds == y.preds for x, y in zip(a.ranks, b.ranks))
    )


# ---------------------------------------------------------------------------
# binary: differential against the oracle
# ---------------------------------------------------------------------------
# Values on and around every varint length boundary, up to the 9-byte 2**63.
_BOUNDARIES = sorted(
    {0, 1, (1 << 63)}
    | {(1 << (7 * k)) - 1 for k in range(1, 10)}
    | {1 << (7 * k) for k in range(1, 9)}
)
_wide = st.one_of(st.sampled_from(_BOUNDARIES), st.integers(min_value=0, max_value=1 << 63))


@st.composite
def wide_schedules(draw):
    """Schedules with multi-byte sizes/tags/streams and ranks dense in dependencies."""
    num_ranks = draw(st.integers(min_value=1, max_value=3))
    sched = GoalSchedule(num_ranks, name=draw(st.text(max_size=6)))
    for rank in sched.ranks:
        for i in range(draw(st.integers(min_value=0, max_value=10))):
            kind = draw(st.sampled_from(list(OpType)))
            size, tag = draw(_wide), draw(_wide)
            cpu = draw(st.sampled_from([0, 1, 127, 128, 1 << 40]))
            if kind == OpType.CALC:
                # a calc carries its tag on the wire too, if it has one
                op = Op(kind, size, tag=draw(st.sampled_from([0, tag])), cpu=cpu)
            else:
                op = Op(kind, size, peer=draw(st.integers(0, 1 << 20)), tag=tag, cpu=cpu)
            deps = draw(st.lists(st.integers(0, i - 1), min_size=min(i, 3), max_size=6)) if i else []
            rank.add_op(op, deps)
    return sched


class TestAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(wide_schedules())
    def test_encode_is_byte_identical_and_decode_equal(self, sched):
        blob = encode_goal(sched)
        assert blob == list_encode_goal(sched)
        assert _same(decode_goal(blob), list_decode_goal(blob))
        assert _same(decode_goal(blob), sched)

    def test_values_straddling_kernel_chunks(self, monkeypatch):
        """A varint cut by a decode chunk is carried into the next one, and
        the encoder's flushes concatenate to the one-shot encoding."""
        sched = GoalSchedule(2, name="chunky")
        for rank in sched.ranks:
            for i in range(300):
                rank.add_op(Op.send(_BOUNDARIES[i % len(_BOUNDARIES)], dst=1, tag=i << 9), range(i % 4))
        expected = list_encode_goal(sched)
        for chunk in (1, 2, 3, 7, 11, 64):
            monkeypatch.setattr(binary, "_CHUNK", chunk + binary._MAX_VARINT_BYTES)
            assert encode_goal(sched) == expected
            assert _same(decode_goal(expected), sched)

    def test_golden_blob_pins_the_layout(self):
        golden = bytes.fromhex(
            "474f414c020d62696e6172792d73616d706c65030302e8071c80804001110301"
            "01158002020102020101058080400011010480020001"
        )
        assert encode_goal(_sample_schedule()) == golden
        assert _same(decode_goal(golden), _sample_schedule())


# ---------------------------------------------------------------------------
# binary: malformed input
# ---------------------------------------------------------------------------
def _blob_with_ops(*op_bytes: bytes) -> bytes:
    """One rank, name "x", holding the given raw op encodings."""
    return b"GOAL\x02\x01x\x01" + bytes([len(op_bytes)]) + b"".join(op_bytes)


class TestMalformedBinary:
    def test_every_strict_prefix_is_rejected(self):
        sched = GoalSchedule(2, name="préfix")
        for rank in sched.ranks:
            for i in range(6):
                rank.add_op(Op.recv(1 << (9 * i), src=1, tag=(1 << 62) + i, cpu=i % 2), range(i))
        blob = encode_goal(sched)
        assert _same(decode_goal(blob), sched)
        for cut in range(len(blob)):
            with pytest.raises(GoalBinaryError):
                decode_goal(blob[:cut])

    @pytest.mark.parametrize("extra", [b"\x00", b"\x80", b"\x02\x05", b"\xff" * 12])
    def test_trailing_bytes_rejected(self, extra):
        with pytest.raises(GoalBinaryError):
            decode_goal(encode_goal(_sample_schedule()) + extra)

    def test_over_long_varint_rejected(self):
        eleven = b"\x80" * 10 + b"\x01"
        with pytest.raises(GoalBinaryError, match="too long"):
            decode_goal(_blob_with_ops(b"\x02" + eleven))
        with pytest.raises(GoalBinaryError, match="too long"):
            decode_goal(b"GOAL\x02" + eleven)  # the name length, read outside the stream

    def test_ten_byte_varint_above_64_bits_rejected(self):
        fits = b"\xff" * 9 + b"\x01"  # 2**64 - 1
        assert decode_goal(_blob_with_ops(b"\x02" + fits)).ranks[0].ops[0].size == (1 << 64) - 1
        with pytest.raises(GoalBinaryError, match="64 bits"):
            decode_goal(_blob_with_ops(b"\x02" + b"\xff" * 9 + b"\x02"))

    def test_bad_headers_and_deltas_rejected(self):
        with pytest.raises(GoalBinaryError, match="invalid op kind 3"):
            decode_goal(_blob_with_ops(b"\x03\x01"))
        with pytest.raises(GoalBinaryError, match="invalid op header"):
            decode_goal(_blob_with_ops(b"\x22\x01"))
        with pytest.raises(GoalBinaryError, match="invalid op header"):
            decode_goal(_blob_with_ops(b"\x82\x01\x01"))  # continuation bit on a header
        with pytest.raises(GoalBinaryError, match="non-minimal"):
            decode_goal(_blob_with_ops(b"\x82\x80\x00\x01"))  # ... padded to read as calc
        with pytest.raises(GoalBinaryError, match="invalid dependency delta 2 for vertex 1"):
            decode_goal(_blob_with_ops(b"\x02\x01", b"\x12\x01\x01\x02"))
        with pytest.raises(GoalBinaryError, match="invalid dependency delta 0 for vertex 1"):
            decode_goal(_blob_with_ops(b"\x02\x01", b"\x12\x01\x02\x01\x00"))

    def test_absurd_counts_fail_fast(self):
        huge = b"\xff" * 9 + b"\x01"
        for blob in (
            b"GOAL\x02\x01x" + huge,  # ranks
            b"GOAL\x02\x01x\x01" + huge,  # ops
            b"GOAL\x02" + huge + b"x\x01\x00",  # name length
            _blob_with_ops(b"\x02\x01", b"\x12\x01" + huge + b"\x01"),  # dependency count
        ):
            with pytest.raises(GoalBinaryError):
                decode_goal(blob)

    def test_name_that_is_not_utf8_rejected(self):
        with pytest.raises(GoalBinaryError, match="UTF-8"):
            decode_goal(b"GOAL\x02\x01\xff\x01\x00")

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40))
    def test_garbage_after_the_magic_never_escapes_as_another_error(self, tail):
        try:
            decode_goal(b"GOAL\x02" + tail)
        except GoalBinaryError:
            pass


class TestValueBound:
    """Nothing outside 64 bits gets into a schedule, so the encoder never meets it."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Op.calc(1 << 70), "op size"),
            (lambda: Op.send(1, dst=1 << 64), "peer rank"),
            (lambda: Op.recv(1, src=0, tag=1 << 64), "tag"),
            (lambda: Op.calc(1, cpu=1 << 65), r"cpu \(compute stream\)"),
        ],
    )
    def test_construction_names_the_field(self, build, field):
        with pytest.raises(ValueError, match=rf"{field} \d+ does not fit"):
            build()

    def test_add_op_names_the_field_and_leaves_the_rank_unchanged(self):
        sched = GoalSchedule(3)
        rank = sched.ranks[2]
        rank.add_op(Op.calc(7))
        with pytest.raises(ValueError, match=r"tag \d+ does not fit"):
            rank.append_op(OpType.SEND, 1, peer=0, tag=1 << 64, requires=[0])
        assert rank.ops == [Op.calc(7)] and rank.preds == [[]]
        assert decode_goal(encode_goal(sched)).ranks[2].ops == [Op.calc(7)]

    def test_largest_value_round_trips(self):
        sched = GoalSchedule(1)
        sched.ranks[0].add_op(Op.calc((1 << 64) - 1))
        assert decode_goal(encode_goal(sched)).ranks[0].ops[0].size == (1 << 64) - 1

    def test_negative_value_cannot_be_smuggled_past_the_constructor(self):
        sched = GoalSchedule(1)
        sched.ranks[0].add_op(Op.calc(1))
        with pytest.raises(ValueError, match="op size must be non-negative, got -1"):
            sched.ranks[0].add_op(Op.calc(-1))
        with pytest.raises(AttributeError, match="immutable"):
            sched.ranks[0].ops[0].size = -1
        assert sched.ranks[0].ops == [Op.calc(1)]

    def test_forward_dependency_names_rank_and_vertex(self):
        sched = GoalSchedule(2)
        sched.ranks[1].add_op(Op.calc(1))
        sched.ranks[1].add_op(Op.calc(1))
        # a forward edge written into the raw CSR, past every checked append
        sched.ranks[1].pred_ptr[1:] = array("q", [1, 1])
        sched.ranks[1].pred_idx.append(1)
        with pytest.raises(GoalBinaryError, match="rank 1 vertex 0: dependency delta -1"):
            encode_goal(sched)

    def test_a_refused_schedule_leaves_no_file(self, tmp_path):
        sched = GoalSchedule(2)
        sched.ranks[1].add_op(Op.calc(1))
        sched.ranks[1].pred_ptr[1:] = array("q", [1])
        sched.ranks[1].pred_idx.append(0)  # a vertex that requires itself
        path = tmp_path / "refused.goalbin"
        with pytest.raises(GoalBinaryError, match="rank 1 vertex 0: dependency delta 0"):
            write_goal_binary(sched, str(path))
        assert not path.exists()


# ---------------------------------------------------------------------------
# text: every error class, with its line
# ---------------------------------------------------------------------------
_PARSE_ERRORS = [
    ("unknown label", "rank 0 {\n a: calc 1\n b requires a\n}", "unknown label 'b' in rank 0", 3),
    ("unknown pred", "rank 0 {\n a: calc 1\n a requires zz\n}", "unknown label 'zz' in rank 0", 3),
    (
        "forward requires",
        "rank 0 {\n a: calc 1\n b: calc 1\n a requires b\n}",
        "dependency a requires b points forward (vertex 1 >= 0)",
        4,
    ),
    ("self requires", "rank 0 {\n a: calc 1\n\n a requires a }", "points forward (vertex 0 >= 0)", 4),
    ("duplicate rank", "rank 0 { a: calc 1 }\nrank 0 { b: calc 1 }", "duplicate block for rank 0", 2),
    ("duplicate label", "rank 0 {\n a: calc 1\n a: calc 2\n}", "duplicate label 'a' in rank 0", 3),
    ("unclosed block", "rank 0 {\n a: calc 1\n", "rank 0 block not closed (missing '}')", None),
    ("bad op", "rank 0 {\n a: sendx 10 to 1\n}", "unrecognised op syntax: 'sendx 10 to 1'", 2),
    ("bad op, no label", "num_ranks 1\nrank 0 {\n  bogus line here\n}", "unrecognised op syntax: 'bogus line here'", 3),
    ("bad label", "rank 0 {\n a b: calc 1\n}", "unrecognised op syntax: 'a b: calc 1'", 2),
    ("label starting outside ASCII", "rank 0 {\n é: calc 1\n}", "unrecognised op syntax: 'é: calc 1'", 2),
    ("label without op", "rank 0 {\n a:\n}", "unrecognised op syntax: 'a:'", 2),
    ("signed size", "rank 0 {\n a: calc +5\n}", "unrecognised op syntax: 'calc +5'", 2),
    ("underscored size", "rank 0 {\n a: calc 1_000\n}", "unrecognised op syntax: 'calc 1_000'", 2),
    ("calc with suffix", "rank 0 {\n a: calc 5b\n}", "unrecognised op syntax: 'calc 5b'", 2),
    ("send without peer", "rank 0 {\n send 5b to\n}", "unrecognised op syntax: 'send 5b to'", 2),
    ("glued tag", "rank 0 {\n send 5b to 1 tag7\n}", "unrecognised op syntax: 'send 5b to 1 tag7'", 2),
    ("stray brace", "rank 0 {\n a: calc 1 {\n}", "unrecognised op syntax: 'calc 1 {'", 2),
    ("nested rank", "rank 0 {\n rank 1 {\n}", "unrecognised op syntax: 'rank 1 {'", 2),
    ("second num_ranks", "num_ranks 2\nnum_ranks 2\nrank 0 { a: calc 1 }", "num_ranks declared more than once", 2),
    ("zero num_ranks", "\nnum_ranks 0\nrank 0 { a: calc 1 }", "num_ranks must be positive", 2),
    ("rank >= num_ranks", "num_ranks 1\nrank 3 { a: calc 1 }", "rank 3 defined but num_ranks is 1", None),
    ("missing rank block", "num_ranks 3\nrank 0 { a: calc 1 }\nrank 2 { }", "no block for rank 1 (num_ranks is 3)", None),
    ("missing block below an inferred num_ranks", "rank 1 { a: calc 1 }", "no block for rank 0 (num_ranks is 2)", None),
    ("text outside a block", "num_ranks 1\n\na: calc 1\n", "expected 'num_ranks' or 'rank N {', got 'a: calc 1'", 3),
    ("brace outside a block", "rank 0 { a: calc 1 }\n}", "expected 'num_ranks' or 'rank N {', got '}'", 2),
    ("brace on its own line", "rank 0\n{ a: calc 1 }", "expected 'num_ranks' or 'rank N {', got 'rank 0'", 1),
    ("empty input", "", "no rank blocks found", None),
    ("only comments", "# nothing\n// here\n", "no rank blocks found", None),
]


@pytest.mark.parametrize("text, message, line_no", [case[1:] for case in _PARSE_ERRORS], ids=[c[0] for c in _PARSE_ERRORS])
def test_parse_error_message_and_line(text, message, line_no):
    with pytest.raises(GoalParseError) as excinfo:
        parse_goal(text)
    assert message in str(excinfo.value)
    assert excinfo.value.line_no == line_no
    if line_no is not None:
        assert str(excinfo.value).startswith(f"line {line_no}: ")


# ---------------------------------------------------------------------------
# text: spellings the tokenizer must keep accepting
# ---------------------------------------------------------------------------
def _ops(text: str, rank: int = 0):
    return parse_goal(text).ranks[rank].ops


class TestAcceptedForms:
    def test_one_line_block(self):
        sched = parse_goal("rank 0 { a: calc 1 }")
        assert sched.num_ranks == 1 and sched.ranks[0].ops == [Op.calc(1)]

    def test_several_statements_on_one_line_need_braces_to_separate(self):
        sched = parse_goal("num_ranks 2\nrank 0{a:calc 1}rank 1 { calc 2 } # done")
        assert [r.ops for r in sched.ranks] == [[Op.calc(1)], [Op.calc(2)]]

    def test_hash_and_slash_comments(self):
        text = (
            "# header\nnum_ranks 1 // one rank\n// full line\nrank 0 { # opens\n"
            "  a: calc 1 # trailing\n  b: calc 2// glued\n  b requires a # edge\n"
            "  #c: calc 3\n} // closes\n"
        )
        rank = parse_goal(text).ranks[0]
        assert rank.ops == [Op.calc(1), Op.calc(2)] and rank.preds == [[], [0]]

    def test_legacy_cpu_syntax(self):
        assert _ops("rank 0 {\n a: calc 5 cpu3\n}")[0].cpu == 3
        assert _ops("rank 0 {\n a: calc 5 cpu 3\n}")[0].cpu == 3
        assert _ops("rank 0 {\n send 8b to 1 tag 2 cpu4\n}")[0] == Op.send(8, dst=1, tag=2, cpu=4)
        assert _ops("rank 0 {\n recv 8b from 1 cpu 4\n}")[0] == Op.recv(8, src=1, cpu=4)

    def test_irequires_is_an_edge(self):
        rank = parse_goal("rank 0 {\n a: calc 1\n b: calc 1\n b irequires a\n}").ranks[0]
        assert rank.preds == [[], [0]]

    def test_unlabelled_ops(self):
        rank = parse_goal("rank 0 {\n calc 5\n send 8b to 1\n recv 8 from 1 tag 3\n}").ranks[0]
        assert rank.ops == [Op.calc(5), Op.send(8, dst=1), Op.recv(8, src=1, tag=3)]

    def test_sizes_with_without_and_apart_from_the_suffix(self):
        ops = _ops("rank 0 {\n send 10b to 1\n send 10 to 1\n send 10 b to 1\n recv 10 b from 1 tag 4\n}")
        assert ops == [Op.send(10, dst=1)] * 3 + [Op.recv(10, src=1, tag=4)]

    def test_crlf_and_ragged_whitespace(self):
        text = "num_ranks 1\r\n\r\nrank 0 {\r\n\ta :  calc   1\r\n  b:calc 2\r\n\tb   requires\ta\r\n}\r\n"
        rank = parse_goal(text).ranks[0]
        assert rank.ops == [Op.calc(1), Op.calc(2)] and rank.preds == [[], [0]]

    def test_requires_may_precede_the_definition_of_its_successor(self):
        rank = parse_goal("rank 0 {\n a: calc 1\n b requires a\n b: calc 2\n}").ranks[0]
        assert rank.preds == [[], [0]]

    def test_repeated_and_unordered_requires_normalise(self):
        text = "rank 0 {\n a: calc 1\n b: calc 1\n c: calc 1\n c requires b\n c requires a\n c requires b\n}"
        assert parse_goal(text).ranks[0].preds == [[], [], [0, 1]]

    def test_label_alphabet(self):
        rank = parse_goal("rank 0 {\n _a.b-c9: calc 1\n Xé: calc 2\n xé.1: calc 3\n xé.1 requires _a.b-c9\n}").ranks[0]
        assert rank.preds == [[], [], [0]] and rank.ops[1] == Op.calc(2)

    def test_unicode_decimal_digits_are_numbers(self):
        assert _ops("rank 0 {\n calc ٣\n}")[0].size == 3  # \d matched these too


# ---------------------------------------------------------------------------
# text: labels are names local to a block; the writer names vertex i op{i}
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("label", ["a b", "9x", "x#y", "a:b", "", "x//y", "{", "ok.label-1"])
def test_written_labels_round_trip(label):
    # Only a label that fits the grammar reads; none is written back, so the
    # text the writer gives parses to the same graph under op0, op1.
    text = f"rank 0 {{\n {label}: calc 1\n tail: calc 2\n tail requires {label}\n}}\n"
    if label != "ok.label-1":
        with pytest.raises(GoalParseError, match="^line 2: unrecognised op syntax"):
            parse_goal(text)
        return
    sched = parse_goal(text)
    written = write_goal(sched)
    parsed = parse_goal(written)
    assert parsed.ranks[0].ops == sched.ranks[0].ops == [Op.calc(1), Op.calc(2)]
    assert parsed.ranks[0].preds == sched.ranks[0].preds == [[], [0]]
    assert label not in written and "op1 requires op0" in written


@pytest.mark.parametrize("first, second", [("a", "b"), ("ok.label-1", "Xé"), ("op1", "op0"), ("op0_", "_")])
def test_labels_are_block_local_names(first, second):
    text = f"rank 0 {{\n {second} requires {first}\n {first}: calc 1\n {second}: calc 2\n}}\n"
    sched = parse_goal(text)
    assert sched.ranks[0].ops == [Op.calc(1), Op.calc(2)] and sched.ranks[0].preds == [[], [0]]
    assert write_goal(sched) == (
        "num_ranks 1\n\nrank 0 {\n    op0: calc 1\n    op1: calc 2\n    op1 requires op0\n}\n"
    )
