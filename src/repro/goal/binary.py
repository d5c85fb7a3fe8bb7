"""Compact binary GOAL codec.

The paper stores and executes GOAL schedules in "a compact binary format" for
storage and execution efficiency (§2.1), and Table 1 / Fig. 9 compare trace
sizes in this format against Chakra.  This module implements that format.

Layout
------
::

    magic   : 4 bytes  b"GOAL"
    version : 1 byte   (currently 2)
    name    : varint length + UTF-8 bytes
    ranks   : varint num_ranks
    per rank:
        varint num_ops
        per op:
            1 byte  header:  bits 0-1 kind, bit 2 has-tag, bit 3 has-cpu,
                             bit 4 has-deps
            varint  size
            varint  peer          (send/recv only)
            varint  tag           (only if has-tag)
            varint  cpu           (only if has-cpu)
            varint  dep count + varint backward deltas (only if has-deps)

All integers use unsigned LEB128 varints; dependency targets are encoded as
``vertex_index - dep_index`` (always >= 1), which keeps most deltas in a
single byte because dependencies are overwhelmingly local.

Decoding and encoding are vectorised.  Every op header byte is below
``0x80``, so everything after the schedule name is *one* LEB128 stream: the
decoder turns it into integers with numpy (continuation mask -> group starts ->
shifted 7-bit payloads -> ``np.add.reduceat``), a bounded chunk at a time, and
builds ops by walking the integer list; the encoder collects plain ints and
emits them through the inverse kernel.  Values are limited to 64 bits, the
width of that kernel, on both sides.

Labels are intentionally *not* stored — they are a debugging aid of the
textual format only — which is one reason GOAL binaries stay much smaller
than Chakra traces.
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, List, Tuple

import numpy as np

from repro.goal.ops import _CALC, _RECV, _SEND, _trusted_op
from repro.goal.schedule import GoalSchedule, RankSchedule, _gc_paused

MAGIC = b"GOAL"
VERSION = 2

_KIND_MASK = 0x03
_FLAG_TAG = 0x04
_FLAG_CPU = 0x08
_FLAG_DEPS = 0x10
_HEADER_MAX = _KIND_MASK | _FLAG_TAG | _FLAG_CPU | _FLAG_DEPS
_KINDS = (_SEND, _RECV, _CALC)  # indexed by the header's kind bits

# A 64-bit value takes at most ten 7-bit groups, the tenth holding one bit.
_MAX_VARINT_BYTES = 10
_VALUE_LIMIT = 1 << 64
# _SIZE_STEPS[k] is the smallest value that needs k + 2 bytes.
_SIZE_STEPS = np.array([1 << (7 * k) for k in range(1, _MAX_VARINT_BYTES)], dtype=np.uint64)
# Bytes (decode) or values (encode) per numpy pass: bounds the temporaries at
# a few tens of MB however large the trace is.
_CHUNK = 1 << 20


class GoalBinaryError(ValueError):
    """Raised when a binary GOAL blob is malformed or truncated, or when a
    schedule holds a value the format cannot carry."""


# ---------------------------------------------------------------------------
# varint kernels
# ---------------------------------------------------------------------------
def _encode_varints(values: List[int]) -> bytes:
    """LEB128-encode ``values`` (each ``0 <= v < 2**64``) into one byte string.

    Raises ``OverflowError`` (from the uint64 conversion) for a value outside
    that range.
    """
    rest = np.array(values, dtype=np.uint64)
    sizes = np.searchsorted(_SIZE_STEPS, rest, side="right") + 1
    ends = np.cumsum(sizes)
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    # Pass k writes byte k of every varint that has one, continuation bit set;
    # the bit is then cleared on each varint's last byte.
    where = ends - sizes
    while rest.size:
        out[where] = (rest & 0x7F) | 0x80
        rest = rest >> 7
        more = rest != 0
        rest = rest[more]
        where = where[more] + 1
    out[ends - 1] &= 0x7F
    return out.tobytes()


def _decode_varints(stream: np.ndarray) -> Iterator[List[int]]:
    """Decode the LEB128 ``stream`` (uint8), yielding one list of ints per chunk."""
    pos, total = 0, len(stream)
    while pos < total:
        chunk = stream[pos : pos + _CHUNK]
        ends = np.flatnonzero(chunk < 0x80)
        if not ends.size:
            if len(chunk) > _MAX_VARINT_BYTES:
                raise GoalBinaryError("varint too long")
            raise GoalBinaryError("truncated varint")
        used = int(ends[-1]) + 1
        if used < len(chunk) and pos + len(chunk) == total:
            raise GoalBinaryError("truncated varint")
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        sizes = ends - starts + 1
        longest = int(sizes.max())
        if longest > _MAX_VARINT_BYTES:
            raise GoalBinaryError("varint too long")
        payload = (chunk[:used] & 0x7F).astype(np.uint64)
        if longest > 1:
            last = payload[ends[sizes > 1]]
            if not last.all():
                # A padded varint could pass a multi-byte value off as the
                # one-byte op header; the encoder never pads.
                raise GoalBinaryError("non-minimal varint (zero-padded)")
            if longest == _MAX_VARINT_BYTES and payload[ends[sizes == longest]].max() > 1:
                raise GoalBinaryError("varint too long (value exceeds 64 bits)")
            # byte k of a varint carries bits 7k .. 7k+6
            k = np.arange(used) - np.repeat(starts, sizes)
            payload <<= (7 * k).astype(np.uint64)
        yield np.add.reduceat(payload, starts).tolist()
        pos += used


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def encode_goal(schedule: GoalSchedule) -> bytes:
    """Encode ``schedule`` into the compact binary format and return the bytes.

    Raises :class:`GoalBinaryError` naming the rank, vertex and field of a
    value outside ``0 <= v < 2**64`` (which :func:`decode_goal` would refuse).
    """
    name_bytes = schedule.name.encode("utf-8")
    parts = [MAGIC, bytes([VERSION]), _encode_varints([len(name_bytes)]), name_bytes]
    ints: List[int] = [schedule.num_ranks]
    try:
        for rank in schedule.ranks:
            ints.append(len(rank.ops))
            for idx, (op, deps) in enumerate(zip(rank.ops, rank.preds)):
                kind = op.kind & _KIND_MASK
                tag = op.tag
                cpu = op.cpu
                header = kind
                if tag:
                    header |= _FLAG_TAG
                if cpu:
                    header |= _FLAG_CPU
                if deps:
                    header |= _FLAG_DEPS
                if kind == _CALC:
                    ints += (header, op.size)
                else:
                    ints += (header, op.size, op.peer)
                if tag:
                    ints.append(tag)
                if cpu:
                    ints.append(cpu)
                if deps:
                    ints.append(len(deps))
                    ints += [idx - dep for dep in deps]
            if len(ints) >= _CHUNK:
                parts.append(_encode_varints(ints))
                ints = []
        parts.append(_encode_varints(ints))
    except OverflowError:
        raise _unencodable(schedule) from None
    return b"".join(parts)


def _unencodable(schedule: GoalSchedule) -> GoalBinaryError:
    """Name the first value of ``schedule`` that does not fit an unsigned 64-bit varint."""
    for rank in schedule.ranks:
        for idx, (op, deps) in enumerate(zip(rank.ops, rank.preds)):
            fields = [("size", op.size), ("peer", op.peer or 0), ("tag", op.tag), ("cpu", op.cpu)]
            fields += [("dependency delta", idx - dep) for dep in deps]
            for field, value in fields:
                if not 0 <= value < _VALUE_LIMIT:
                    return GoalBinaryError(
                        f"rank {rank.rank} vertex {idx}: {field} {value} does not fit "
                        f"the binary format (must be 0 <= value < 2**64)"
                    )
    return GoalBinaryError("schedule holds a value outside 0 <= value < 2**64")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
@_gc_paused()
def decode_goal(data: bytes) -> GoalSchedule:
    """Decode a binary GOAL blob produced by :func:`encode_goal`."""
    if len(data) < 5 or data[:4] != MAGIC:
        raise GoalBinaryError("not a GOAL binary (bad magic)")
    version = data[4]
    if version != VERSION:
        raise GoalBinaryError(f"unsupported GOAL binary version {version}")
    buf = np.frombuffer(data, dtype=np.uint8)
    name_len, pos = _leading_varint(buf[5 : 5 + _MAX_VARINT_BYTES])
    pos += 5
    if pos + name_len > len(data):
        raise GoalBinaryError("truncated schedule name")
    try:
        name = bytes(data[pos : pos + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GoalBinaryError(f"schedule name is not valid UTF-8: {exc}") from None
    stream = buf[pos + name_len :]
    values = chain.from_iterable(_decode_varints(stream))
    nxt = values.__next__
    try:
        num_ranks = nxt()
        if num_ranks <= 0:
            raise GoalBinaryError("num_ranks must be positive")
        # every rank costs at least its op-count varint
        if num_ranks >= len(stream):
            raise GoalBinaryError(f"truncated: {num_ranks} ranks declared")
        schedule = GoalSchedule(num_ranks, name=name)
        for r in range(num_ranks):
            schedule.ranks[r] = _decode_rank(nxt, r)
    except StopIteration:
        raise GoalBinaryError("truncated GOAL binary (stream ends inside a rank)") from None
    trailing = sum(1 for _ in values)
    if trailing:
        raise GoalBinaryError(f"{trailing} trailing varints after last rank")
    return schedule


def _leading_varint(head: np.ndarray) -> Tuple[int, int]:
    """Return ``(value, byte length)`` of the varint at the start of ``head``."""
    ends = np.flatnonzero(head < 0x80)
    if not ends.size:
        raise GoalBinaryError("varint too long" if len(head) >= _MAX_VARINT_BYTES else "truncated varint")
    used = int(ends[0]) + 1
    return next(_decode_varints(head[:used]))[0], used


def _decode_rank(nxt: Callable[[], int], rank: int) -> RankSchedule:
    """Build rank ``rank`` from the integer stream behind ``nxt``."""
    ops = []
    preds = []
    for idx in range(nxt()):
        header = nxt()
        kind = header & _KIND_MASK
        if header > _HEADER_MAX:
            raise GoalBinaryError(f"invalid op header {header:#x} for vertex {idx}")
        if kind > _CALC:
            raise GoalBinaryError(f"invalid op kind {kind}")
        size = nxt()
        peer = None if kind == _CALC else nxt()
        tag = nxt() if header & _FLAG_TAG else 0
        cpu = nxt() if header & _FLAG_CPU else 0
        ops.append(_trusted_op(_KINDS[kind], size, peer, tag, cpu))
        if not header & _FLAG_DEPS:
            preds.append([])
            continue
        count = nxt()
        if count == 1:
            deps = [idx - nxt()]
        else:
            deps = sorted({idx - nxt() for _ in range(count)})
        if deps and not (0 <= deps[0] and deps[-1] < idx):
            bad = deps[0] if deps[0] < 0 else deps[-1]
            raise GoalBinaryError(f"invalid dependency delta {idx - bad} for vertex {idx}")
        preds.append(deps)
    return RankSchedule._from_parts(rank, ops, preds, {})


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------
def write_goal_binary(schedule: GoalSchedule, path: str) -> int:
    """Write ``schedule`` in binary form to ``path``; return the byte count."""
    blob = encode_goal(schedule)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_goal_binary(path: str) -> GoalSchedule:
    """Read a binary GOAL file from ``path``."""
    with open(path, "rb") as fh:
        return decode_goal(fh.read())
