"""Serialiser for the textual GOAL format.

Produces output that :func:`repro.goal.parser.parse_goal` round-trips exactly.
A schedule keeps no names, so the writer makes them up: vertex ``i`` of a
rank block is ``op{i}``, the name its ``requires`` lines use.  Names are
local to one block, as in the parser.

The text is made one rank block at a time (:func:`write_goal_blocks`), so
writing a file holds one block beside the schedule, never the whole text.
"""
from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.goal.ops import _CALC, _SEND
from repro.goal.schedule import GoalSchedule, RankSchedule, edge_owners


def write_goal(schedule: GoalSchedule) -> str:
    """Serialise ``schedule`` to the textual GOAL format and return the string."""
    return "".join(write_goal_blocks(schedule))


def write_goal_blocks(schedule: GoalSchedule) -> Iterator[str]:
    """The text of :func:`write_goal` in pieces: the header, then one block per rank."""
    yield f"num_ranks {schedule.num_ranks}\n"
    for rank in schedule.ranks:
        yield _rank_block(rank)


def _rank_block(rank: RankSchedule) -> str:
    """One rank's block, preceded by the blank line that separates it from the one before."""
    lines: List[str] = ["", f"rank {rank.rank} {{"]
    for idx, (kind, size, peer, tag, cpu) in enumerate(
        zip(rank.kind, rank.size, rank.peer, rank.tag, rank.cpu)
    ):
        if kind == _CALC:
            line = f"    op{idx}: calc {size}"
        else:
            verb, word = ("send", "to") if kind == _SEND else ("recv", "from")
            line = f"    op{idx}: {verb} {size}b {word} {peer}"
            if tag:
                line += f" tag {tag}"
        if cpu:
            line += f" cpu {cpu}"
        lines.append(line)
    ptr, idx = rank.pred_csr()
    owners = edge_owners(np.diff(ptr)).tolist()
    lines += [f"    op{vertex} requires op{dep}" for vertex, dep in zip(owners, idx.tolist())]
    lines.append("}\n")
    return "\n".join(lines)


def write_goal_file(schedule: GoalSchedule, path: str) -> None:
    """Serialise ``schedule`` to a textual GOAL file at ``path``, one rank block at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(write_goal_blocks(schedule))
