"""Tests for the textual GOAL parser and writer."""
import pytest

from repro.goal import GoalBuilder, GoalParseError, parse_goal, write_goal
from repro.goal import parser
from repro.goal.ops import OpType

EXAMPLE = """
# the paper's Fig. 3 example
num_ranks 2

rank 0 {
    l1: calc 100
    l2: calc 200 cpu 0
    l3: calc 200 cpu 1
    l2 requires l1
    l3 requires l1
    l4: send 10b to 1 tag 5
    l4 requires l2
    l4 requires l3
}

rank 1 {
    r1: recv 10b from 0 tag 5
}
"""


class TestParser:
    def test_parse_example(self):
        sched = parse_goal(EXAMPLE)
        assert sched.num_ranks == 2
        assert len(sched.ranks[0]) == 4
        assert len(sched.ranks[1]) == 1

    def test_parse_dependencies(self):
        sched = parse_goal(EXAMPLE)
        # l1 .. l4 are vertices 0 .. 3, in the order the block defines them
        assert sched.ranks[0].preds == [[], [0], [0], [1, 2]]

    def test_parse_cpu_assignment(self):
        sched = parse_goal(EXAMPLE)
        assert [op.cpu for op in sched.ranks[0].ops] == [0, 0, 1, 0]

    def test_parse_send_fields(self):
        sched = parse_goal(EXAMPLE)
        op = sched.ranks[0].ops[3]
        assert op.kind == OpType.SEND and op.size == 10 and op.peer == 1 and op.tag == 5

    def test_num_ranks_inferred_when_missing(self):
        sched = parse_goal("rank 0 { a: calc 1 }\nrank 2 { b: calc 1 }\nrank 1 { }")
        assert sched.num_ranks == 3 and [len(rank) for rank in sched.ranks] == [1, 0, 1]

    def test_comments_and_blank_lines_ignored(self):
        text = "num_ranks 1\n\n// comment\nrank 0 {\n  # inline\n  a: calc 1 // trailing\n}\n"
        assert parse_goal(text).num_ops() == 1

    def test_unlabelled_ops_allowed(self):
        sched = parse_goal("rank 0 { calc 5\ncalc 6 }")
        assert sched.num_ops() == 2

    def test_cpuN_legacy_syntax(self):
        sched = parse_goal("rank 0 { a: calc 5 cpu1 }")
        assert sched.ranks[0].ops[0].cpu == 1

    def test_error_unknown_label(self):
        with pytest.raises(GoalParseError):
            parse_goal("rank 0 { a: calc 1\n b requires a }")

    def test_error_duplicate_rank(self):
        with pytest.raises(GoalParseError):
            parse_goal("rank 0 { a: calc 1 }\nrank 0 { b: calc 1 }")

    def test_error_unclosed_block(self):
        with pytest.raises(GoalParseError):
            parse_goal("rank 0 { a: calc 1")

    def test_error_bad_op(self):
        with pytest.raises(GoalParseError):
            parse_goal("rank 0 { a: sendx 10 to 1 }")

    def test_error_rank_exceeds_num_ranks(self):
        with pytest.raises(GoalParseError):
            parse_goal("num_ranks 1\nrank 3 { a: calc 1 }")

    def test_error_duplicate_num_ranks(self):
        with pytest.raises(GoalParseError):
            parse_goal("num_ranks 2\nnum_ranks 2\nrank 0 { a: calc 1 }")

    def test_error_empty_input(self):
        with pytest.raises(GoalParseError):
            parse_goal("")

    def test_error_line_number_reported(self):
        try:
            parse_goal("num_ranks 1\nrank 0 {\n  bogus line here\n}")
        except GoalParseError as exc:
            assert exc.line_no == 3
        else:  # pragma: no cover
            pytest.fail("expected GoalParseError")

    def test_forward_requires_rejected(self):
        text = "rank 0 { a: calc 1\n b: calc 1\n a requires b }"
        with pytest.raises(GoalParseError):
            parse_goal(text)


# line breaks str.splitlines() knows besides "\n": a slice cut must not change
# where any of them splits
ODD_BREAKS = [
    EXAMPLE.replace("\n", "\r\n"),
    EXAMPLE.replace("\n", "\r"),
    "num_ranks 2\r\nrank 0 {\x0cl1: calc 5\u2028}\n\nrank 1 {\x1cr1: calc 7\r\n}",
    "rank 0 {\r\nl1: calc 5\x1d\x1el2: bogus 3\n}\n",
    "rank 0 {\nl1: calc 5\r\nl2 requires l9\x85}\v",
    "rank 0 {\r\n\r\nl1: calc 5",
]


def _outcome(text):
    try:
        return write_goal(parse_goal(text))
    except GoalParseError as exc:
        return str(exc), exc.line_no


class TestSlicedLines:
    """``parse_goal`` walks the text in slices cut just after a "\\n"."""

    @pytest.mark.parametrize("text", ODD_BREAKS)
    def test_slices_are_splitlines(self, text, monkeypatch):
        for size in range(len(text) + 2):
            monkeypatch.setattr(parser, "_SLICE_CHARS", size)
            assert list(parser._lines(text)) == text.splitlines()

    def test_parse_is_the_same_for_every_slice_size(self, monkeypatch):
        outcomes = [_outcome(text) for text in ODD_BREAKS]
        assert [type(o) for o in outcomes] == [str, str, str, tuple, tuple, tuple]
        for size in (0, 1, 2, 3, 5, 8, 13):
            monkeypatch.setattr(parser, "_SLICE_CHARS", size)
            assert [_outcome(text) for text in ODD_BREAKS] == outcomes


class TestWriterRoundTrip:
    def _build(self):
        b = GoalBuilder(3, name="rt")
        r0 = b.rank(0)
        c = r0.calc(100)
        s = r0.send(4096, dst=1, tag=3, cpu=2, requires=[c])
        r0.recv(64, src=2, requires=[s])
        b.rank(1).recv(4096, src=0, tag=3)
        b.rank(2).send(64, dst=0)
        return b.build()

    def test_roundtrip_preserves_structure(self):
        original = self._build()
        parsed = parse_goal(write_goal(original))
        assert parsed.num_ranks == original.num_ranks
        assert parsed.num_ops() == original.num_ops()
        assert parsed.num_edges() == original.num_edges()
        for r in range(original.num_ranks):
            for o1, o2 in zip(original.ranks[r].ops, parsed.ranks[r].ops):
                assert o1 == o2
            assert original.ranks[r].preds == parsed.ranks[r].preds

    def test_writer_emits_num_ranks_header(self):
        assert write_goal(self._build()).startswith("num_ranks 3")

    def test_writer_handles_unlabelled_ops(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1)
        text = write_goal(b.build())
        assert "op0" in text
