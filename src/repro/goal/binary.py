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
``0x80``, so everything after the schedule name is *one* LEB128 stream, which
numpy turns into a uint64 array and back (continuation mask -> group starts ->
shifted 7-bit payloads -> ``np.add.reduceat``, and the inverse), a bounded
chunk at a time.  Between that array and the schedule's columns
(:mod:`repro.goal.schedule`) lies only a change of layout.  The encoder
computes every record's length from its header, hence every field's position,
and scatters the columns into place.  The decoder computes, for *every*
position of the array, where the next record would start if one started here
(a header fixes the record's length up to its dependency count, which sits at
a known offset), follows that chain from the first record -- one array lookup
per op, the only per-op Python -- and gathers the columns from the positions
it visited.  Values are limited to 64 bits on both sides.

Labels are intentionally *not* stored — they are a debugging aid of the
textual format only — which is one reason GOAL binaries stay much smaller
than Chakra traces.
"""
from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.goal.ops import _CALC
from repro.goal.schedule import (
    GoalSchedule,
    RankSchedule,
    csr_from_edges,
    edge_owners,
    index_within,
    stack_ranks,
)

MAGIC = b"GOAL"
VERSION = 2

_KIND_MASK = 0x03
_FLAG_TAG = 0x04
_FLAG_CPU = 0x08
_FLAG_DEPS = 0x10
_HEADER_MAX = _KIND_MASK | _FLAG_TAG | _FLAG_CPU | _FLAG_DEPS

# A 64-bit value takes at most ten 7-bit groups, the tenth holding one bit.
_MAX_VARINT_BYTES = 10
# _SIZE_STEPS[k] is the smallest value that needs k + 2 bytes.
_SIZE_STEPS = np.array([1 << (7 * k) for k in range(1, _MAX_VARINT_BYTES)], dtype=np.uint64)
# Bytes (decode), values or ops (encode) per numpy pass: bounds the
# temporaries at a few tens of MB however large the trace is.
_CHUNK = 1 << 20


class GoalBinaryError(ValueError):
    """Raised when a binary GOAL blob is malformed or truncated, or when a
    schedule holds a dependency the format cannot carry."""


# ---------------------------------------------------------------------------
# varint kernels
# ---------------------------------------------------------------------------
def _encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode the uint64 array ``values`` into one byte string."""
    parts = []
    for at in range(0, len(values), _CHUNK):
        chunk = values[at : at + _CHUNK]
        # Most values (headers, small sizes, deltas) take one byte: lay every
        # value's low byte down first, then loop over the longer ones only.
        long = np.flatnonzero(chunk > 0x7F)
        rest = chunk[long]
        sizes = np.ones(len(chunk), dtype=np.intp)
        sizes[long] = np.searchsorted(_SIZE_STEPS, rest, side="right") + 1
        ends = np.cumsum(sizes)
        where = ends - sizes
        out = np.empty(int(ends[-1]), dtype=np.uint8)
        out[where] = chunk & 0x7F
        where = where[long]
        rest >>= 7
        while rest.size:
            out[where] |= 0x80  # the byte before has a successor
            where += 1
            out[where] = rest & 0x7F
            rest >>= 7
            more = rest != 0
            rest = rest[more]
            where = where[more]
        parts.append(out.tobytes())
    return b"".join(parts)


def _decode_varints(stream: np.ndarray) -> Iterator[np.ndarray]:
    """Decode the LEB128 ``stream`` (uint8), yielding one uint64 array per chunk."""
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
        # Most varints are one byte: take every first byte's payload, then
        # loop over the longer ones only, byte k carrying bits 7k .. 7k+6.
        values = (chunk[starts] & 0x7F).astype(np.uint64)
        long = np.flatnonzero(ends != starts)
        if long.size:
            at = starts[long]
            last = ends[long]
            if int((last - at).max()) >= _MAX_VARINT_BYTES:
                raise GoalBinaryError("varint too long")
            if not chunk[last].all():
                # A padded varint could pass a multi-byte value off as the
                # one-byte op header; the encoder never pads.
                raise GoalBinaryError("non-minimal varint (zero-padded)")
            if chunk[last[last - at == _MAX_VARINT_BYTES - 1]].max(initial=0) > 1:
                raise GoalBinaryError("varint too long (value exceeds 64 bits)")
            shift = 0
            while long.size:
                at = at + 1
                shift += 7
                values[long] |= (chunk[at] & 0x7F).astype(np.uint64) << np.uint64(shift)
                more = at != last
                long, at, last = long[more], at[more], last[more]
        yield values
        pos += used


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def encode_goal(schedule: GoalSchedule) -> bytes:
    """Encode ``schedule`` into the compact binary format and return the bytes.

    Raises :class:`GoalBinaryError` naming the rank and vertex of a dependency
    that does not point backwards (which :func:`decode_goal` would refuse);
    the op fields themselves cannot be out of range.
    """
    name_bytes = schedule.name.encode("utf-8")
    parts = [
        MAGIC,
        bytes([VERSION]),
        _encode_varints(np.array([len(name_bytes)], dtype=np.uint64)),
        name_bytes,
        _encode_varints(np.array([schedule.num_ranks], dtype=np.uint64)),
    ]
    batch: List[RankSchedule] = []
    ops = 0
    for rank in schedule.ranks:
        batch.append(rank)
        ops += len(rank)
        if ops >= _CHUNK:
            parts.append(_encode_varints(_rank_stream(batch)))
            batch, ops = [], 0
    parts.append(_encode_varints(_rank_stream(batch)))
    return b"".join(parts)


def _rank_stream(ranks: Sequence[RankSchedule]) -> np.ndarray:
    """The integer stream of consecutive ``ranks``: each one's op count, then its records."""
    if not ranks:
        return np.empty(0, dtype=np.uint64)
    kind, size, peer, tag, cpu, degree, dep, rank_of, vertex = stack_ranks(ranks)
    counts = np.bincount(rank_of, minlength=len(ranks))
    first = np.cumsum(counts) - counts  # (stack index of each rank's vertex 0)

    comm = kind != _CALC
    has_tag = tag != 0
    has_cpu = cpu != 0
    has_deps = degree != 0
    length = 2 + comm + has_tag + has_cpu + has_deps + degree
    ends = np.cumsum(length)
    # a record starts after the records before it and the op counts up to its rank's
    at = ends - length + rank_of + 1
    out = np.empty(int(ends[-1]) + len(ranks) if len(kind) else len(ranks), dtype=np.uint64)
    out[np.concatenate(([0], ends))[first] + np.arange(len(ranks))] = counts
    out[at] = kind | (has_tag * _FLAG_TAG) | (has_cpu * _FLAG_CPU) | (has_deps * _FLAG_DEPS)
    out[at + 1] = size
    out[at[comm] + 2] = peer[comm]
    at = at + 2 + comm
    out[at[has_tag]] = tag[has_tag]
    at += has_tag
    out[at[has_cpu]] = cpu[has_cpu]
    at += has_cpu
    out[at[has_deps]] = degree[has_deps]
    owner = edge_owners(degree)
    delta = vertex[owner] - dep
    if len(delta) and delta.min() < 1:
        bad = int(np.flatnonzero(delta < 1)[0])
        raise GoalBinaryError(
            f"rank {ranks[rank_of[owner[bad]]].rank} vertex {vertex[owner[bad]]}: dependency "
            f"delta {delta[bad]} does not fit the binary format (a vertex may only "
            "require earlier vertices)"
        )
    # dependency k of a vertex sits k + 1 places after its count
    out[at[owner] + 1 + index_within(degree)] = delta
    return out


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
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
    chunks = list(_decode_varints(buf[pos + name_len :]))
    if not chunks:
        raise GoalBinaryError("truncated GOAL binary (no rank count)")
    values = np.concatenate(chunks)
    del chunks
    num_ranks = int(values[0])
    if num_ranks <= 0:
        raise GoalBinaryError("num_ranks must be positive")
    # every rank costs at least its op-count varint
    if num_ranks >= len(values):
        raise GoalBinaryError(f"truncated: {num_ranks} ranks declared")
    return _schedule_from_stream(name, num_ranks, values)


def _leading_varint(head: np.ndarray) -> Tuple[int, int]:
    """Return ``(value, byte length)`` of the varint at the start of ``head``."""
    ends = np.flatnonzero(head < 0x80)
    if not ends.size:
        raise GoalBinaryError("varint too long" if len(head) >= _MAX_VARINT_BYTES else "truncated varint")
    used = int(ends[0]) + 1
    return int(next(_decode_varints(head[:used]))[0]), used


def _header_table(field) -> np.ndarray:
    """``field(header)`` for every header value, and for 32 = "no header"."""
    return np.array([field(h) for h in range(_HEADER_MAX + 1)] + [field(None)], dtype=np.int64)


# Per header value: the record's length up to (not including) its dependency
# count, and whether such a count follows.  A value that is no header (entry
# 32: too large, or kind 3) gets a length that leads past any stream.
_FIXED_LENGTH = _header_table(
    lambda h: 1 << 62
    if h is None or h & _KIND_MASK > _CALC
    else 2 + (h & _KIND_MASK != _CALC) + bool(h & _FLAG_TAG) + bool(h & _FLAG_CPU)
)
_HAS_DEPS = _header_table(lambda h: h is not None and bool(h & _FLAG_DEPS))


def _next_record(values: np.ndarray) -> array:
    """For every position of ``values``: where the next record starts if one starts here.

    ``len(values) + 1`` where no complete, well-formed record starts.
    """
    total = len(values)
    following = np.empty(total, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        header = np.minimum(values[lo:hi], _HEADER_MAX + 1).astype(np.intp)
        # the dependency count, if any, comes right after the fixed part
        count_at = np.arange(lo, hi) + _FIXED_LENGTH[header]
        count = np.minimum(values[np.minimum(count_at, total - 1)], total).astype(np.int64)
        count += 1
        count *= _HAS_DEPS[header]
        count += count_at
        np.minimum(count, total + 1, out=following[lo:hi])
    return array("q", following.tobytes())


def _schedule_from_stream(name: str, num_ranks: int, values: np.ndarray) -> GoalSchedule:
    """Build the schedule from the integer stream ``values`` (``values[0]`` is ``num_ranks``)."""
    total = len(values)
    following = _next_record(values)
    # The one per-op loop: follow the chain of record starts.  It leaves the
    # stream (IndexError) where the stream ends early, and one step after a
    # record that is malformed or cut short.
    heads = array("q")
    visit = heads.append
    counts: List[int] = []
    pos = 1
    try:
        for _ in range(num_ranks):
            count = int(values[pos])
            pos += 1
            # every op takes at least two values
            if count > total - pos:
                raise GoalBinaryError("truncated GOAL binary (stream ends inside a rank)")
            counts.append(count)
            for _ in range(count):
                after = following[pos]
                visit(pos)
                pos = after
        complete = True
    except IndexError:
        complete = False
    bad_last = pos > total  # the last record visited is not one
    del following

    at = np.frombuffer(heads, dtype=np.int64)[: len(heads) - bad_last]
    header = values[at].astype(np.uint8)  # (all valid: the walk stops on any other)
    kind = header & _KIND_MASK
    comm = kind != _CALC
    tagged = (header & _FLAG_TAG) != 0
    pinned = (header & _FLAG_CPU) != 0
    fixed = _FIXED_LENGTH[header]
    vertex = index_within(counts)[: len(heads)]
    degree = np.where(
        _HAS_DEPS[header] != 0, values[np.minimum(at + fixed, total - 1)].astype(np.int64), 0
    )
    owner = edge_owners(degree)
    # dependency k of a record sits k + 1 places after its count
    delta = values[(at + fixed)[owner] + 1 + index_within(degree)]
    bad = (delta == 0) | (delta > vertex[owner].astype(np.uint64))
    if bad.any():
        edge = int(np.flatnonzero(bad)[0])
        raise GoalBinaryError(
            f"invalid dependency delta {delta[edge]} for vertex {vertex[owner[edge]]}"
        )
    if bad_last:
        header = int(values[heads[-1]])
        if header > _HEADER_MAX:
            raise GoalBinaryError(f"invalid op header {header:#x} for vertex {vertex[-1]}")
        if header & _KIND_MASK > _CALC:
            raise GoalBinaryError(f"invalid op kind {header & _KIND_MASK}")
    if bad_last or not complete:
        raise GoalBinaryError("truncated GOAL binary (stream ends inside a rank)")
    if pos != total:
        raise GoalBinaryError(f"{total - pos} trailing varints after last rank")

    dep = vertex[owner] - delta.astype(np.int64)
    if len(delta) > 1 and ((owner[1:] == owner[:-1]) & (delta[1:] >= delta[:-1])).any():
        # a foreign encoder listed some vertex's dependencies unsorted or twice
        # (stack indices keep the ranks' edges apart while they are sorted)
        ptr, pred = csr_from_edges(len(at), owner, owner - delta.astype(np.int64))
        degree = np.diff(ptr)
        dep = pred - (np.arange(len(at)) - vertex)[edge_owners(degree)]
    return GoalSchedule.from_stacked(
        name,
        counts,
        kind,
        values[at + 1],
        np.where(comm, values[np.minimum(at + 2, total - 1)], 0),
        np.where(tagged, values[np.minimum(at + 2 + comm, total - 1)], 0),
        np.where(pinned, values[np.minimum(at + fixed - 1, total - 1)], 0),
        degree,
        dep,
    )


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------
def write_goal_binary(schedule: GoalSchedule, path: str) -> int:
    """Write ``schedule`` in binary form to ``path``; return the byte count."""
    blob = encode_goal(schedule)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)

