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

Decoding and encoding are vectorised, and both work one bounded piece at a
time, so what they hold beside their input and output is a few windows'
worth of numpy temporaries however large the trace is.  Every op header
byte is below ``0x80``, so everything after the schedule name is *one*
LEB128 stream, which numpy turns into a uint64 array and back (continuation
mask -> group starts -> shifted 7-bit payloads, and the inverse).  Between
that array and the schedule's columns (:mod:`repro.goal.schedule`) lies only
a change of layout.

The encoder (:func:`encode_goal_chunks`) takes at most ``_CHUNK >> 4`` ops
at a time -- a rank may be cut between two batches -- computes every
record's length from its header, hence every field's position, scatters the
columns into place and yields the batch's bytes.

The decoder reads the stream a window of about ``_CHUNK`` bytes at a time (a
varint cut by the window's edge is finished in it).  For every position of
a window it computes where the next record would start if one started here
(a header fixes the record's length up to its dependency count, which sits
at a known offset), follows that chain through the window -- one array
lookup per op, the only per-op Python -- gathers the columns of the records
it visited and appends them to their ranks.  A record or rank count that
the window's edge cuts is carried into the next window.  A counting pass
over the bytes (one per varint is below ``0x80``) gives the stream's length
up front, so an absurd rank or op count fails before anything is read, and
every varint is decoded before a structural fault is reported, so a blob
fails with the same message whatever the window size.  Values are limited
to 64 bits on both sides.

A vertex has no name here, as in the schedule: it is its fields and its
dependency deltas, which is one reason GOAL binaries stay much smaller than
Chakra traces.
"""
from __future__ import annotations

import os
from array import array
from typing import Iterator, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.goal.ops import _CALC
from repro.goal.schedule import (
    GoalSchedule,
    RankSchedule,
    append_stacked,
    csr_from_edges,
    edge_owners,
    index_within,
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
# Stream bytes per decode window; an encode batch is ``_CHUNK >> 4`` ops,
# about half a window of stream (LULESH averages 7.7 bytes per record).
# Either way a numpy pass holds a few hundred KB, however large the trace is.
_CHUNK = 1 << 16


class GoalBinaryError(ValueError):
    """Raised when a binary GOAL blob is malformed or truncated, or when a
    schedule holds a dependency the format cannot carry."""


# ---------------------------------------------------------------------------
# varint kernels
# ---------------------------------------------------------------------------
def _encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode the uint64 array ``values`` into one byte string."""
    if not len(values):
        return b""
    # Most values (headers, small sizes, deltas) take one byte: lay every
    # value's low byte down first, then loop over the longer ones only.
    long = np.flatnonzero(values > 0x7F)
    rest = values[long]
    sizes = np.ones(len(values), dtype=np.intp)
    sizes[long] = np.searchsorted(_SIZE_STEPS, rest, side="right") + 1
    ends = np.cumsum(sizes)
    where = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[where] = values & 0x7F
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
    return out.tobytes()


def _decode_varints(stream: np.ndarray) -> Iterator[np.ndarray]:
    """Decode the LEB128 ``stream`` (uint8), yielding one uint64 array per window.

    ``stream`` must end with the last byte of a varint.  A window is about
    ``_CHUNK`` bytes, stretched to finish the varint its edge cuts; a run of
    continuation bytes too long to finish is carried into the next window,
    which reports it.
    """
    pos, total = 0, len(stream)
    while pos < total:
        end = min(pos + _CHUNK, total)
        if stream[end - 1] >= 0x80:
            finish = np.flatnonzero(stream[end : end + _MAX_VARINT_BYTES] < 0x80)
            end += int(finish[0]) + 1 if finish.size else _MAX_VARINT_BYTES
        chunk = stream[pos:end]
        ends = np.flatnonzero(chunk < 0x80)
        if not ends.size:
            raise GoalBinaryError("varint too long")
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
        pos += int(ends[-1]) + 1


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def encode_goal(schedule: GoalSchedule) -> bytes:
    """Encode ``schedule`` into the compact binary format and return the bytes.

    Raises :class:`GoalBinaryError` naming the rank and vertex of a dependency
    that does not point backwards (which :func:`decode_goal` would refuse);
    the op fields themselves cannot be out of range.
    """
    return b"".join(encode_goal_chunks(schedule))


def encode_goal_chunks(schedule: GoalSchedule) -> Iterator[bytes]:
    """The bytes of :func:`encode_goal` in pieces: the head, then one piece per batch of ops.

    A batch is at most ``_CHUNK >> 4`` ops (a rank may straddle two), so the
    encoder's temporaries do not grow with the schedule.  The error of
    :func:`encode_goal` is raised on reaching the batch that holds the bad
    dependency.
    """
    name_bytes = schedule.name.encode("utf-8")
    yield b"".join((
        MAGIC,
        bytes([VERSION]),
        _encode_varints(np.array([len(name_bytes)], dtype=np.uint64)),
        name_bytes,
        _encode_varints(np.array([schedule.num_ranks], dtype=np.uint64)),
    ))
    batch_ops = max(1, _CHUNK >> 4)
    batch: List[Tuple[RankSchedule, int, int]] = []
    room = batch_ops
    for rank in schedule.ranks:
        lo, n = 0, len(rank)
        while True:
            hi = min(n, lo + room)
            batch.append((rank, lo, hi))
            room -= max(hi - lo, 1)  # an empty rank still costs its op count
            if not room:
                yield _encode_varints(_batch_stream(batch))
                batch, room = [], batch_ops
            if hi == n:
                break
            lo = hi
    if batch:
        yield _encode_varints(_batch_stream(batch))


def _batch_stream(batch: Sequence[Tuple[RankSchedule, int, int]]) -> np.ndarray:
    """The integer stream of ``batch``: vertices ``lo:hi`` of each ``(rank, lo, hi)`` in turn,
    each piece that starts its rank (``lo == 0``) led by the rank's op count."""
    pieces = []
    for rank, lo, hi in batch:
        ptr, idx = rank.pred_csr()
        pieces.append(
            (*(column[lo:hi] for column in rank.columns()), np.diff(ptr[lo : hi + 1]), idx[ptr[lo] : ptr[hi]])
        )
    kind, size, peer, tag, cpu, degree, dep = (np.concatenate(column) for column in zip(*pieces))
    spans = np.array([hi - lo for _, lo, hi in batch], dtype=np.int64)
    piece_of = edge_owners(spans)
    vertex = np.array([lo for _, lo, _ in batch], dtype=np.int64)[piece_of] + index_within(spans)
    leads = np.array([lo == 0 for _, lo, _ in batch])
    # op counts up to and including each piece's own
    counted = np.cumsum(leads)

    comm = kind != _CALC
    has_tag = tag != 0
    has_cpu = cpu != 0
    has_deps = degree != 0
    length = 2 + comm + has_tag + has_cpu + has_deps + degree
    ends = np.cumsum(length)
    # a record starts after the records before it and the op counts up to its piece's
    at = ends - length + counted[piece_of]
    out = np.empty((int(ends[-1]) if len(ends) else 0) + int(counted[-1]), dtype=np.uint64)
    leads = np.flatnonzero(leads)
    before = np.concatenate(([0], ends))[np.cumsum(spans) - spans]
    out[before[leads] + counted[leads] - 1] = [len(batch[p][0]) for p in leads.tolist()]
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
            f"rank {batch[piece_of[owner[bad]]][0].rank} vertex {vertex[owner[bad]]}: dependency "
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
    return _decode_ranks(name, buf[pos + name_len :])


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
    header = np.minimum(values, _HEADER_MAX + 1).astype(np.intp)
    # the dependency count, if any, comes right after the fixed part
    count_at = np.arange(total) + _FIXED_LENGTH[header]
    following = np.minimum(values[np.minimum(count_at, total - 1)], total).astype(np.int64)
    following += 1
    following *= _HAS_DEPS[header]
    following += count_at
    np.minimum(following, total + 1, out=following)
    return array("q", following.tobytes())


def _record_extent(values: np.ndarray, at: int) -> Optional[int]:
    """How many values the record at ``values[at]`` spans, as far as ``values`` tells.

    ``None`` for a value that is no op header; a lower bound when the
    dependency count lies beyond ``values``.
    """
    header = int(values[at])
    if header > _HEADER_MAX or header & _KIND_MASK > _CALC:
        return None
    extent = int(_FIXED_LENGTH[header])
    if _HAS_DEPS[header]:
        extent += 1 + (int(values[at + extent]) if at + extent < len(values) else 0)
    return extent


def _decode_ranks(name: str, stream: np.ndarray) -> GoalSchedule:
    """Build the schedule from the varint ``stream`` after its name, one window at a time."""
    total = sum(
        int(np.count_nonzero(stream[at : at + _CHUNK] < 0x80)) for at in range(0, len(stream), _CHUNK)
    )
    if len(stream) and stream[-1] >= 0x80:
        # a stream that ends inside a varint is reported as that, wherever
        # else it is at fault
        raise GoalBinaryError(
            "varint too long" if not total and len(stream) > _MAX_VARINT_BYTES else "truncated varint"
        )
    windows = _decode_varints(stream)

    def fail(message: str) -> NoReturn:
        # every varint is checked before a record is blamed, as if the
        # stream had been decoded whole before the walk
        for _ in windows:
            pass
        raise GoalBinaryError(message)

    values = next(windows, None)
    if values is None:
        raise GoalBinaryError("truncated GOAL binary (no rank count)")
    num_ranks = int(values[0])
    if num_ranks <= 0:
        fail("num_ranks must be positive")
    # every rank costs at least its op-count varint
    if num_ranks >= total:
        fail(f"truncated: {num_ranks} ranks declared")

    ranks: List[RankSchedule] = []
    # values[0] is value number ``base`` of the stream; the walk goes on at values[pos]
    base, pos = 0, 1
    count = left = 0  # the open rank's op count, and how many of them are still to read
    delta_error: Optional[str] = None
    while True:
        size = len(values)
        following = _next_record(values)
        heads = array("q")
        visit = heads.append
        # (rank, index in heads of its first record here, that record's vertex)
        segments = [(ranks[-1], 0, count - left)] if left else []
        # The one per-op loop: follow the chain of record starts.  It leaves
        # the window (IndexError) where the window ends, and one step after
        # a record that is malformed or does not end in the window.
        try:
            while True:
                if not left:
                    if len(ranks) == num_ranks:
                        break
                    count = int(values[pos])
                    # every op takes at least two values
                    if count > total - base - pos - 1:
                        fail("truncated GOAL binary (stream ends inside a rank)")
                    pos += 1
                    ranks.append(RankSchedule(len(ranks)))
                    segments.append((ranks[-1], len(heads), 0))
                    left = count
                    continue
                for left in range(left, 0, -1):
                    after = following[pos]
                    visit(pos)
                    pos = after
                left = 0
        except IndexError:
            pass
        bad_last = False
        if pos > size:  # the last record visited does not end in this window
            at = heads[-1]
            extent = _record_extent(values, at)
            if extent is None or base + at + extent > total:
                bad_last = True
            else:  # it goes on in the next window: read it again there
                heads.pop()
                pos, left = at, left + 1
        if delta_error is None:
            delta_error = _append_window(values, heads, len(heads) - bad_last, segments)
        done = len(ranks) == num_ranks and not left and not bad_last
        if done or bad_last or base + size == total:
            if delta_error:
                fail(delta_error)
            if bad_last:
                _, first, vertex = segments[-1]
                header = int(values[heads[-1]])
                if header > _HEADER_MAX:
                    fail(f"invalid op header {header:#x} for vertex {vertex + len(heads) - 1 - first}")
                if header & _KIND_MASK > _CALC:
                    fail(f"invalid op kind {header & _KIND_MASK}")
            if not done:
                fail("truncated GOAL binary (stream ends inside a rank)")
            if base + pos != total:
                fail(f"{total - base - pos} trailing varints after last rank")
            return GoalSchedule.from_ranks(ranks, name)
        # carry what is left of this window into the next, with enough of
        # the stream for the record or rank count it begins with
        need = _record_extent(values, pos) if left and pos < size else 1
        parts = [values[pos:]]
        held = size - pos
        while held < need:
            parts.append(next(windows))
            held += len(parts[-1])
        base += pos
        pos = 0
        values = np.concatenate(parts)


def _append_window(
    values: np.ndarray,
    heads: array,
    n: int,
    segments: List[Tuple[RankSchedule, int, int]],
) -> Optional[str]:
    """Gather the first ``n`` records starting at ``heads`` and append them to their ranks.

    Records ``segments[i][1]`` up to the next segment's first belong to rank
    ``segments[i][0]`` and are its vertices from ``segments[i][2]`` on.
    Returns the message for the first dependency delta that points outside
    its rank, appending nothing, or ``None``.
    """
    at = np.frombuffer(heads, dtype=np.int64)[:n]
    total = len(values)
    firsts = [first for _, first, _ in segments]
    counts = np.diff(np.array(firsts + [n], dtype=np.int64))
    vertex = index_within(counts) + np.repeat([v for _, _, v in segments], counts)
    header = values[at].astype(np.uint8)  # (all valid: the walk stops on any other)
    kind = header & _KIND_MASK
    comm = kind != _CALC
    tagged = (header & _FLAG_TAG) != 0
    pinned = (header & _FLAG_CPU) != 0
    fixed = _FIXED_LENGTH[header]
    degree = np.where(
        _HAS_DEPS[header] != 0, values[np.minimum(at + fixed, total - 1)].astype(np.int64), 0
    )
    owner = edge_owners(degree)
    # dependency k of a record sits k + 1 places after its count
    delta = values[(at + fixed)[owner] + 1 + index_within(degree)]
    bad = (delta == 0) | (delta > vertex[owner].astype(np.uint64))
    if bad.any():
        edge = int(np.flatnonzero(bad)[0])
        return f"invalid dependency delta {delta[edge]} for vertex {vertex[owner[edge]]}"
    dep = vertex[owner] - delta.astype(np.int64)
    if len(delta) > 1 and ((owner[1:] == owner[:-1]) & (delta[1:] >= delta[:-1])).any():
        # a foreign encoder listed some vertex's dependencies unsorted or twice
        # (window indices keep the records' edges apart while they are sorted)
        ptr, pred = csr_from_edges(n, owner, owner - delta.astype(np.int64))
        degree = np.diff(ptr)
        dep = pred - (np.arange(n) - vertex)[edge_owners(degree)]
    append_stacked(
        [rank for rank, _, _ in segments],
        counts,
        kind,
        values[at + 1],
        np.where(comm, values[np.minimum(at + 2, total - 1)], 0),
        np.where(tagged, values[np.minimum(at + 2 + comm, total - 1)], 0),
        np.where(pinned, values[np.minimum(at + fixed - 1, total - 1)], 0),
        degree,
        dep,
    )
    return None


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------
def write_goal_binary(schedule: GoalSchedule, path: str) -> int:
    """Write ``schedule`` in binary form to ``path``, one batch at a time; return the byte count.

    A schedule the encoder refuses leaves no file behind.
    """
    written = 0
    try:
        with open(path, "wb") as fh:
            for chunk in encode_goal_chunks(schedule):
                written += fh.write(chunk)
    except GoalBinaryError:
        os.remove(path)
        raise
    return written
