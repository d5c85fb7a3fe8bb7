"""Serialiser for the textual GOAL format.

Produces output that :func:`repro.goal.parser.parse_goal` round-trips exactly
(modulo label renaming: vertices without labels are assigned ``opN`` labels so
dependencies can be expressed).

The text is made one rank block at a time (:func:`write_goal_blocks`), so
writing a file holds one block beside the schedule, never the whole text.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Set

import numpy as np

from repro.goal.ops import _CALC, _SEND
from repro.goal.parser import LABEL_RE
from repro.goal.schedule import GoalSchedule, RankSchedule, edge_owners


def write_goal(schedule: GoalSchedule) -> str:
    """Serialise ``schedule`` to the textual GOAL format and return the string.

    Every vertex gets a unique label: its own when that is a label the parser
    accepts (:data:`~repro.goal.parser.LABEL_RE`) and not yet taken in its
    rank, else the generated ``opN``.
    """
    return "".join(write_goal_blocks(schedule))


def write_goal_blocks(schedule: GoalSchedule) -> Iterator[str]:
    """The text of :func:`write_goal` in pieces: the header, then one block per rank."""
    yield f"num_ranks {schedule.num_ranks}\n"
    for rank in schedule.ranks:
        yield _rank_block(rank)


def _rank_block(rank: RankSchedule) -> str:
    """One rank's block, preceded by the blank line that separates it from the one before."""
    lines: List[str] = ["", f"rank {rank.rank} {{"]
    labels: List[str] = []
    # Labels taken so far; only tracked from the rank's first user label
    # on, because generated ``opN`` labels cannot collide with each other.
    used: Optional[Set[str]] = None
    named = bool(rank.labels)
    for idx, (kind, size, peer, tag, cpu) in enumerate(
        zip(rank.kind, rank.size, rank.peer, rank.tag, rank.cpu)
    ):
        label = named and rank.label_of(idx)
        if label:
            if used is None:
                used = set(labels)
            if label in used or not LABEL_RE.fullmatch(label):
                label = None
        if not label:
            label = f"op{idx}"
            # guard against user labels that collide with generated ones
            while used is not None and label in used:
                label += "_"
        if used is not None:
            used.add(label)
        labels.append(label)

        if kind == _CALC:
            line = f"    {label}: calc {size}"
        else:
            verb, word = ("send", "to") if kind == _SEND else ("recv", "from")
            line = f"    {label}: {verb} {size}b {word} {peer}"
            if tag:
                line += f" tag {tag}"
        if cpu:
            line += f" cpu {cpu}"
        lines.append(line)
    ptr, idx = rank.pred_csr()
    owners = edge_owners(np.diff(ptr)).tolist()
    lines += [
        f"    {labels[vertex]} requires {labels[dep]}" for vertex, dep in zip(owners, idx.tolist())
    ]
    lines.append("}\n")
    return "\n".join(lines)


def write_goal_file(schedule: GoalSchedule, path: str) -> None:
    """Serialise ``schedule`` to a textual GOAL file at ``path``, one rank block at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(write_goal_blocks(schedule))
