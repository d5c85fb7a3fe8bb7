"""GOAL (Group Operation Assembly Language) intermediate representation.

GOAL is the unified trace format at the heart of the ATLAHS toolchain.  Every
application trace — MPI, NCCL, or block-I/O — is converted into a GOAL
schedule: one dependency DAG per rank whose vertices are ``send``, ``recv``
and ``calc`` tasks and whose edges are ``requires`` relations.  The GOAL
scheduler (:mod:`repro.scheduler`) then replays these DAGs on any network
backend.

Public surface
--------------
:class:`~repro.goal.ops.Op`, :class:`~repro.goal.ops.OpType`
    Single task (vertex) and its kind.
:class:`~repro.goal.schedule.RankSchedule`, :class:`~repro.goal.schedule.GoalSchedule`
    Per-rank DAG and the whole-program collection of rank DAGs.  Append-only:
    a rank grows through ``append_op`` / ``add_op`` / ``extend`` (each checks
    its input) and nothing rewrites an appended vertex; transforms return new
    schedules; views are read-only (an ``Op`` is immutable, ``columns()`` and
    ``pred_csr()`` refuse writes).
:class:`~repro.goal.builder.GoalBuilder`, :class:`~repro.goal.builder.RankBuilder`
    Programmatic construction API used by all schedule generators.
:func:`~repro.goal.parser.parse_goal` / :func:`~repro.goal.writer.write_goal`
    Textual GOAL format (the human-readable format shown in the paper's Fig. 3);
    :func:`~repro.goal.writer.write_goal_blocks` yields the text rank block by
    rank block.
:func:`~repro.goal.binary.encode_goal` / :func:`~repro.goal.binary.decode_goal`
    Compact binary format used for storage/execution efficiency;
    :func:`~repro.goal.binary.encode_goal_chunks` yields the bytes batch by
    batch.
:func:`read_goal`
    Read a GOAL file of either format, told apart by the binary magic (not by
    the file name).
:func:`~repro.goal.validate.validate_schedule`
    Structural validation (acyclicity, matching sends/recvs, bounds).
:mod:`~repro.goal.merge`
    Rank remapping, arrival delays and DAG fusion for multi-job / multi-tenant
    scenarios, each returning a new schedule.
"""
from repro.goal.ops import Op, OpType
from repro.goal.schedule import GoalSchedule, RankSchedule
from repro.goal.builder import GoalBuilder, RankBuilder
from repro.goal.parser import parse_goal, GoalParseError
from repro.goal.writer import write_goal, write_goal_blocks, write_goal_file
from repro.goal.binary import MAGIC, encode_goal, encode_goal_chunks, decode_goal, write_goal_binary
from repro.goal.validate import validate_schedule, GoalValidationError
from repro.goal.merge import remap_ranks, concatenate_schedules, delay_schedule


def read_goal(path: str) -> GoalSchedule:
    """Read the GOAL file at ``path``, binary or textual.

    The format is decided by the content -- a binary file starts with the
    4-byte ``GOAL`` magic, which no textual schedule can -- so a mis-named
    file still loads.  A textual schedule is named after ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == MAGIC:
        return decode_goal(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GoalParseError(f"{path}: neither a GOAL binary nor UTF-8 text ({exc})") from None
    del data  # the text alone is parsed: hold it once, not twice
    return parse_goal(text, name=path)


__all__ = [
    "Op",
    "OpType",
    "GoalSchedule",
    "RankSchedule",
    "GoalBuilder",
    "RankBuilder",
    "parse_goal",
    "GoalParseError",
    "write_goal",
    "write_goal_blocks",
    "write_goal_file",
    "encode_goal",
    "encode_goal_chunks",
    "decode_goal",
    "write_goal_binary",
    "read_goal",
    "validate_schedule",
    "GoalValidationError",
    "remap_ranks",
    "concatenate_schedules",
    "delay_schedule",
]
