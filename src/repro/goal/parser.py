"""Parser for the textual GOAL format.

The textual format follows the paper's Fig. 3 and the LogGOPSim GOAL
language.  A file consists of an optional header followed by one block per
rank::

    num_ranks 2

    rank 0 {
        l1: calc 100
        l2: calc 200 cpu 0
        l3: calc 200 cpu 1
        l2 requires l1
        l3 requires l1
        l4: send 10b to 1 tag 42
        l4 requires l2
        l4 requires l3
    }

    rank 1 {
        l1: recv 10b from 0 tag 42
    }

Rules
-----
* ``num_ranks N`` may appear once before the first rank block; if absent the
  number of ranks is inferred as ``max(rank id) + 1``.  Every rank ``0 ..
  N - 1`` has a block (``rank 3 { }`` for one without ops), so a schedule
  holds no rank the text does not.
* A label (``l1:``) names an op for the ``requires`` lines of its own rank
  block and nothing else: it is forgotten at the block's ``}``, and the
  schedule keeps the op's fields only (:func:`repro.goal.writer.write_goal`
  names vertex ``i`` of a block ``op{i}``).
* Sizes may carry a ``b`` suffix (bytes) for sends/receives; calc takes a bare
  integer (nanoseconds).
* ``cpu K`` optionally pins an op to compute stream ``K`` (``cpuK`` is also
  accepted, matching LogGOPSim's historical syntax).
* ``X requires Y`` adds a dependency edge Y -> X.  Both labels must already be
  defined in the current rank block.
* ``#`` and ``//`` start comments; blank lines are ignored.

Implementation
--------------
One pass, one ``str.split`` per line, over ~1 MiB slices of the text
(:func:`_lines`), so only one slice's lines are alive at once.  A line whose
whitespace tokens already form one statement -- every line
:func:`repro.goal.writer.write_goal` emits -- is applied as is.  Only a line
that does not (a comment, a one-line ``rank 0 { a: calc 1 }``, ``a:calc 1``)
is cut at ``#`` / ``//``, split at its braces and re-tokenised, so the common
line never pays for the rare one.  An
op line appends its five numbers to the open block's op array and a
``requires`` line its two vertices to the edge array; the closing brace cuts
the first into field columns, sorts the second into the dependency index and
hands both to the rank.
"""
from __future__ import annotations

import re
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.goal.ops import _CALC, _RECV, _SEND
from repro.goal.schedule import GoalSchedule, RankSchedule, csr_from_edges


class GoalParseError(ValueError):
    """Raised when textual GOAL input is malformed.

    Attributes
    ----------
    line_no:
        1-based line number at which the error occurred (``None`` when the
        error is not attributable to a single line).
    """

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


# the label grammar
_LABEL_RE = re.compile(r"[A-Za-z_][\w.-]*")

# keyword -> (kind, the word that introduces the peer)
_COMM = {"send": (_SEND, "to"), "recv": (_RECV, "from")}
_REQUIRES = ("requires", "irequires")


def _is_label(word: str) -> bool:
    # ASCII identifiers are the common case and need no regex.
    return (word.isascii() and word.isidentifier()) or _LABEL_RE.fullmatch(word) is not None


def _parse_op(toks: List[str], i: int) -> Optional[Tuple[int, int, int, int, int]]:
    """``(kind, size, peer, tag, cpu)`` of the op spelled by ``toks[i:]``, or ``None``.

    ``calc N [cpu K]`` or ``send|recv N[b] to|from P [tag T] [cpu K]``; the
    ``b`` may stand alone and ``cpu K`` may be written ``cpuK``.
    """
    n = len(toks)
    try:
        word = toks[i]
        size = toks[i + 1]
        i += 2
        peer = tag = cpu = "0"
        if word == "calc":
            kind = _CALC
        else:
            kind, peer_word = _COMM[word]
            if size[-1] == "b":
                size = size[:-1]
            elif toks[i] == "b":
                i += 1
            if toks[i] != peer_word:
                return None
            peer = toks[i + 1]
            i += 2
            if i < n and toks[i] == "tag":
                tag = toks[i + 1]
                i += 2
        if i < n:
            if toks[i] == "cpu":
                cpu = toks[i + 1]
                i += 2
            elif toks[i].startswith("cpu"):
                cpu = toks[i][3:]
                i += 1
        # Numbers are what ``\d+`` accepted: one isdecimal() over all four
        # refuses the signs, underscores and blanks int() would let through,
        # and int() itself refuses an empty one.
        if i != n or not (size + peer + tag + cpu).isdecimal():
            return None
        return kind, int(size), int(peer), int(tag), int(cpu)
    except (IndexError, KeyError, ValueError):
        return None


def _statements(raw: str) -> Iterator[Tuple[str, List[str]]]:
    """Cut ``raw`` into ``(text, tokens)`` statements.

    For a line that is not one statement as it stands: drops the comment,
    ends a statement after ``{`` and around ``}`` (so one-line rank blocks
    parse like multi-line ones), and puts the tokens in the canonical
    spelling -- ``{`` alone, ``label:`` in one piece.
    """
    for mark in ("#", "//"):
        cut = raw.find(mark)
        if cut >= 0:
            raw = raw[:cut]
    for text in raw.replace("{", "{\n").replace("}", "\n}\n").split("\n"):
        text = text.strip()
        if not text:
            continue
        core, brace = (text[:-1], ["{"]) if text[-1] == "{" else (text, [])
        label, colon, body = core.partition(":")
        if colon:
            yield text, [label.strip() + ":"] + body.split() + brace
        else:
            yield text, core.split() + brace


#: Characters per slice :func:`_lines` splits at once (a slice runs on to the next ``"\n"``).
_SLICE_CHARS = 1 << 20


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one slice of about :data:`_SLICE_CHARS` at a time.

    Each slice ends just after a ``"\n"`` (or at the end of ``text``), so no
    ``"\r\n"`` straddles a cut and the slices' lines, end to end, are exactly
    the whole text's; only one slice's lines are alive at once.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _SLICE_CHARS) + 1 or end
        yield from text[start:cut].splitlines()
        start = cut


def parse_goal(text: str, name: str = "goal") -> GoalSchedule:
    """Parse textual GOAL ``text`` into a :class:`GoalSchedule`.

    Raises
    ------
    GoalParseError
        On any syntax or structural error (unknown labels, duplicate rank
        blocks, dependencies on not-yet-defined labels, ...).
    """
    declared_ranks: Optional[int] = None
    blocks: Dict[int, RankSchedule] = {}
    line_no = 0

    # The open rank block (``rank is None`` between blocks): five numbers per
    # op (kind, size, peer, tag, cpu) and two per edge (vertex, required
    # vertex), both in the order the file states them, and its labels, which
    # die with it.
    rank: Optional[int] = None
    ops, edges = array("Q"), array("q")
    labels: Dict[str, int] = {}
    # ``requires`` lines naming a label not defined above them: (succ, pred, line)
    pending: List[Tuple[str, str, int]] = []

    def close_block() -> None:
        nonlocal rank
        for succ_label, pred_label, at in pending:
            for label in (succ_label, pred_label):
                if label not in labels:
                    raise GoalParseError(f"unknown label {label!r} in rank {rank}", at)
            succ, pred = labels[succ_label], labels[pred_label]
            if pred >= succ:
                raise GoalParseError(
                    f"dependency {succ_label} requires {pred_label} points forward "
                    f"(vertex {pred} >= {succ}); GOAL requires definition before use",
                    at,
                )
            edges.extend((succ, pred))
        fields = np.frombuffer(ops, dtype=np.uint64).reshape(-1, 5)
        pairs = np.frombuffer(edges, dtype=np.int64).reshape(-1, 2)
        blocks[rank] = RankSchedule(rank)
        blocks[rank].extend(*fields.T, *csr_from_edges(len(fields), pairs[:, 0], pairs[:, 1]))
        rank = None

    def statement(toks: List[str]) -> bool:
        """Apply the statement ``toks`` spell; ``False`` if they spell none."""
        nonlocal declared_ranks, rank, ops, edges, labels, pending
        n = len(toks)
        head = toks[0]
        if rank is None:
            if head == "rank" and n == 3 and toks[2] == "{" and toks[1].isdecimal():
                rank = int(toks[1])
                if rank in blocks:
                    raise GoalParseError(f"duplicate block for rank {rank}", line_no)
                ops, edges, labels, pending = array("Q"), array("q"), {}, []
                return True
            if head == "num_ranks" and n == 2 and toks[1].isdecimal():
                if declared_ranks is not None:
                    raise GoalParseError("num_ranks declared more than once", line_no)
                declared_ranks = int(toks[1])
                if declared_ranks <= 0:
                    raise GoalParseError("num_ranks must be positive", line_no)
                return True
            return False

        if n == 3 and toks[1] in _REQUIRES:
            succ = labels.get(head)
            pred = labels.get(toks[2])
            if succ is not None and pred is not None and pred < succ:
                edges.extend((succ, pred))
                return True
            # Not both defined yet, or a forward edge: settled (or refused,
            # with this line's number) when the block closes.
            if _is_label(head) and _is_label(toks[2]):
                pending.append((head, toks[2], line_no))
                return True
            return False

        label = None
        if head[-1] == ":":
            label = head[:-1]
            if not _is_label(label):
                return False
        elif head == "}":
            if n != 1:
                return False
            close_block()
            return True
        fields = _parse_op(toks, 0 if label is None else 1)
        if fields is None:
            return False
        if label is not None:
            if label in labels:
                raise GoalParseError(f"duplicate label {label!r} in rank {rank}", line_no)
            labels[label] = len(ops) // 5
        try:
            ops.extend(fields)
        except OverflowError:
            raise GoalParseError(
                "a number of this op does not fit 64 bits (must be < 2**64)", line_no
            ) from None
        return True

    for line_no, raw in enumerate(_lines(text), start=1):
        toks = raw.split()
        if not toks or statement(toks):
            continue
        for part, toks in _statements(raw):
            if statement(toks):
                continue
            if rank is None:
                raise GoalParseError(
                    f"expected 'num_ranks' or 'rank N {{', got {part!r}", line_no
                )
            # as the labelled form reports it: the part after a well-formed "label:"
            label, _, body = part.partition(":")
            if body.strip() and _LABEL_RE.fullmatch(label.strip()):
                part = body.strip()
            raise GoalParseError(f"unrecognised op syntax: {part!r}", line_no)

    if rank is not None:
        raise GoalParseError(f"rank {rank} block not closed (missing '}}')")

    if not blocks:
        raise GoalParseError("no rank blocks found")

    max_rank = max(blocks)
    num_ranks = declared_ranks if declared_ranks is not None else max_rank + 1
    if max_rank >= num_ranks:
        raise GoalParseError(
            f"rank {max_rank} defined but num_ranks is {num_ranks}"
        )
    if len(blocks) < num_ranks:
        # the first gap is at most len(blocks): found without touching num_ranks
        missing = next(r for r in range(len(blocks) + 1) if r not in blocks)
        raise GoalParseError(f"no block for rank {missing} (num_ranks is {num_ranks})")
    return GoalSchedule.from_ranks([blocks[r] for r in range(num_ranks)], name=name)

