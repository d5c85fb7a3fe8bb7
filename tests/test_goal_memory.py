"""The GOAL codecs work in bounded memory, and their windows do not show.

Every stage holds a window's (or a rank block's) worth of temporaries beyond
what it returns.  The bounds are measured with ``tracemalloc`` (the peak of
traced allocations during the stage, above what was traced before it) on the
64-rank, 10-iteration LULESH schedule of the ``goal_ingest_hpc`` benchmark
workload: 58 880 ops, 3.8 MB of text, 453 KB of binary.

The decoder reads its stream ``binary._CHUNK`` bytes at a time: the
malformed-blob table of ``tests/test_goal_codec.py`` and random valid
schedules are decoded again with windows of 3, 7 and 64 bytes, and each
must give what the default window gives.
"""
import gc
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings

import repro.goal as goal_package
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.goal import (
    GoalParseError, decode_goal, encode_goal, parse_goal, read_goal, write_goal, write_goal_binary,
    write_goal_file,
)
from repro.goal import binary
from repro.goal.binary import GoalBinaryError
from repro.goal.ops import Op
from repro.goal.schedule import GoalSchedule
from repro.schedgen import mpi_trace_to_goal
from schedule_oracle import list_decode_goal, list_encode_goal
from test_goal_binary import _sample_schedule
from test_goal_codec import _BOUNDARIES, _blob_with_ops, _same, wide_schedules

MB = 1_000_000
WINDOWS = (3, 7, 64)


def _lulesh(iterations: int) -> GoalSchedule:
    trace = HPC_APPLICATIONS["lulesh"].trace(HpcRunConfig(num_ranks=64, iterations=iterations, seed=0))
    return mpi_trace_to_goal(trace)


@pytest.fixture(scope="module")
def lulesh():
    return _lulesh(10)


def _traced(stage):
    """``(result, peak above the start, retained above the start)`` of ``stage()``, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = stage()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, retained - start


# ---------------------------------------------------------------------------
# bounds per stage
# ---------------------------------------------------------------------------
def test_encode_holds_little_beyond_its_bytes(lulesh):
    blob, peak, _ = _traced(lambda: encode_goal(lulesh))
    assert len(blob) == 453_136
    assert peak <= 2 * MB


def test_encode_bound_does_not_grow_with_the_schedule(lulesh):
    def streamed(schedule):
        return _traced(lambda: sum(map(len, binary.encode_goal_chunks(schedule))))

    small, small_peak, _ = streamed(_lulesh(2))
    large, large_peak, _ = streamed(lulesh)
    assert large > 4 * small
    assert small_peak <= 2 * MB and large_peak <= 2 * MB
    assert large_peak <= small_peak + MB // 4


def test_decode_holds_little_beyond_the_schedule(lulesh):
    blob = encode_goal(lulesh)
    decoded, peak, retained = _traced(lambda: decode_goal(blob))
    assert decoded.num_ops() == lulesh.num_ops()
    assert peak <= 2.5 * retained


def test_a_parsed_schedule_keeps_only_its_columns(lulesh):
    """Text names every vertex, but the names die with their rank block: a parsed
    schedule keeps what a decoded one does, within the 64 bytes per op of
    ``tests/test_goal_columnar.py::test_resident_bytes_per_op_of_the_hpcg_schedule``."""
    text = write_goal(lulesh)
    parsed, _, retained = _traced(lambda: parse_goal(text))
    assert parsed.num_ops() == lulesh.num_ops()
    assert retained / parsed.num_ops() <= 64


@pytest.mark.parametrize(
    "text, missing",
    [("num_ranks 1000000000\nrank 0 { a: calc 1 }", 1), ("rank 999999999 { a: calc 1 }", 0)],
    ids=["declared", "inferred"],
)
def test_ranks_the_text_lacks_are_refused_before_any_is_allocated(text, missing):
    def parse():
        with pytest.raises(GoalParseError, match=f"no block for rank {missing} \\(num_ranks is 1000000000\\)"):
            parse_goal(text)

    _, peak, _ = _traced(parse)
    assert peak < MB


def test_write_holds_little_beyond_the_text(lulesh):
    text, peak, _ = _traced(lambda: write_goal(lulesh))
    assert peak <= 2.2 * len(text)


def test_file_writers_hold_one_piece_at_a_time(lulesh, tmp_path):
    text_path, blob_path = tmp_path / "s.goal", tmp_path / "s.goalbin"
    _, text_peak, _ = _traced(lambda: write_goal_file(lulesh, str(text_path)))
    written, blob_peak, _ = _traced(lambda: write_goal_binary(lulesh, str(blob_path)))
    assert text_path.read_text(encoding="utf-8") == write_goal(lulesh)
    assert blob_path.read_bytes() == encode_goal(lulesh) and written == 453_136
    # one rank block is a 64th of the text; one batch a few hundred KB
    assert text_peak <= 0.25 * text_path.stat().st_size
    assert blob_peak <= 2 * MB


def test_read_goal_parses_text_it_holds_once(lulesh, tmp_path):
    path = tmp_path / "s.goal"
    write_goal_file(lulesh, str(path))
    size = path.stat().st_size
    parse = goal_package.parse_goal
    held = []

    def spy(text, name):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        tracemalloc.stop()  # the parse is not what is measured here, and slow when traced
        return parse(text, name=name)

    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(goal_package, "parse_goal", spy):
            parsed = read_goal(str(path))
    finally:
        tracemalloc.stop()
    assert parsed.num_ops() == lulesh.num_ops()
    assert held and held[0] <= 1.2 * size


# ---------------------------------------------------------------------------
# the window does not show
# ---------------------------------------------------------------------------
def _malformed_blobs():
    """The malformed-blob table of ``tests/test_goal_codec.py``, plus faults deep in a longer stream."""
    prefix = GoalSchedule(2, name="préfix")
    for rank in prefix.ranks:
        for i in range(6):
            rank.add_op(Op.recv(1 << (9 * i), src=1, tag=(1 << 62) + i, cpu=i % 2), range(i))
    blob = encode_goal(prefix)
    cases = [(f"prefix{cut}", blob[:cut]) for cut in range(len(blob))]
    sample = encode_goal(_sample_schedule())
    cases += [(f"trailing{extra.hex()}", sample + extra) for extra in (b"\x00", b"\x80", b"\x02\x05", b"\xff" * 12)]
    huge = b"\xff" * 9 + b"\x01"
    cases += [
        ("eleven-byte size", _blob_with_ops(b"\x02" + b"\x80" * 10 + b"\x01")),
        ("eleven-byte name length", b"GOAL\x02" + b"\x80" * 10 + b"\x01"),
        ("65-bit size", _blob_with_ops(b"\x02" + b"\xff" * 9 + b"\x02")),
        ("kind 3", _blob_with_ops(b"\x03\x01")),
        ("header 0x22", _blob_with_ops(b"\x22\x01")),
        ("continued header", _blob_with_ops(b"\x82\x01\x01")),
        ("padded header", _blob_with_ops(b"\x82\x80\x00\x01")),
        ("delta 2 at vertex 1", _blob_with_ops(b"\x02\x01", b"\x12\x01\x01\x02")),
        ("delta 0 at vertex 1", _blob_with_ops(b"\x02\x01", b"\x12\x01\x02\x01\x00")),
        ("huge rank count", b"GOAL\x02\x01x" + huge),
        ("huge op count", b"GOAL\x02\x01x\x01" + huge),
        ("huge name length", b"GOAL\x02" + huge + b"x\x01\x00"),
        ("huge dependency count", _blob_with_ops(b"\x02\x01", b"\x12\x01" + huge + b"\x01")),
        ("name not UTF-8", b"GOAL\x02\x01\xff\x01\x00"),
    ]
    # one fault at a time, deep in a stream of many windows
    def long(last_rank_ops):
        sched = GoalSchedule(2, name="long")
        for rank, ops in zip(sched.ranks, (40, last_rank_ops)):
            for i in range(ops):
                rank.add_op(Op.send(_BOUNDARIES[i % len(_BOUNDARIES)], dst=1, tag=i << 9), range(max(0, i - 3), i))
        return encode_goal(sched)

    body = long(40)
    count_at = body.index(b"long") + 5  # after the name, the rank count: rank 0's op count
    # where rank 1's op k starts: the length of the blob it would end
    head = [len(long(k)) for k in (10, 20, 30)]
    cases += [(f"long-prefix{cut}", body[:cut]) for cut in range(len(body) // 2, len(body), 5)]
    cases += [
        ("long: kind 3", body[: head[0]] + bytes([body[head[0]] | 0x03]) + body[head[0] + 1 :]),
        ("long: header 0x7f", body[: head[1]] + b"\x7f" + body[head[1] + 1 :]),
        ("long: padded header", body[: head[2]] + bytes([body[head[2]] | 0x80]) + b"\x00" + body[head[2] + 1 :]),
        ("long: delta 127 at vertex 9", body[: head[0] - 1] + b"\x7f" + body[head[0] :]),
        ("long: trailing varints", body + b"\x01\x02\x03"),
        ("long: huge op count", body[:count_at] + huge + body[count_at + 1 :]),
    ]
    return cases


def test_malformed_blob_messages_do_not_depend_on_the_window():
    for case, blob in _malformed_blobs():
        with pytest.raises(GoalBinaryError) as default:
            decode_goal(blob)
        for window in WINDOWS:
            with mock.patch.object(binary, "_CHUNK", window):
                with pytest.raises(GoalBinaryError) as windowed:
                    decode_goal(blob)
            assert str(windowed.value) == str(default.value), (case, window)


@settings(max_examples=60, deadline=None)
@given(wide_schedules())
def test_random_schedules_decode_alike_in_every_window(sched):
    blob = list_encode_goal(sched)
    for window in WINDOWS:
        with mock.patch.object(binary, "_CHUNK", window):
            assert encode_goal(sched) == blob
            decoded = decode_goal(blob)
        assert _same(decoded, list_decode_goal(blob)) and _same(decoded, sched)
