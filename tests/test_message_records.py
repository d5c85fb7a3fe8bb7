"""The flat message-record store (:class:`repro.network.backend.MessageRecords`).

Records used to be a list of :class:`MessageRecord` namedtuples, appended one
per delivered message.  The store keeps six integers per message in one
``array('Q')``.  These tests hold it to the list it replaced:

* a differential: on every delivery path (LogGOPS eager and rendezvous, the
  packet backend, ``shards=2``, a co-tenant cell run in a worker process) the
  store equals, record by record, the list a spy at the delivery points
  builds, and the sharded merge equals the list path's stable sort even when
  records tie on the whole sort key;
* ``mct_statistics`` returns the list formula's floats bit for bit;
* the view reads as the list did (``==``, indexing, slices, ``sorted``,
  ``tuple``, ``repr``, pickling);
* it retains at most 64 bytes per message;
* a merge that sorts unstably fails the differential.
"""
from __future__ import annotations

import contextlib
import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from repro import workers
from repro.cluster import ClusterJob, run_cotenant
from repro.collectives import build_collective_schedule
from repro.goal import GoalBuilder
from repro.network import LogGOPSParams, SimulationConfig
from repro.network.backend import (
    MessageRecord,
    MessageRecords,
    NetworkBackend,
    NetworkStats,
    SimulationResult,
)
from repro.network.loggops.backend import LogGOPSBackend
from repro.network.packet.sharded import _merge_results
from repro.scheduler import simulate
from repro.schedgen.synthetic import all_to_all
from inline_workers import inline_workers

_LEXSORT = np.lexsort
_RENDEZVOUS = LogGOPSParams(L=3000, o=600, g=5, G=0.18, S=1000)


@contextlib.contextmanager
def delivery_spy():
    """Per shard id (0 off the sharded engine), the records the list path
    appended, in delivery order: every ``_message_delivered`` call and every
    eager LogGOPS arrival, which inlines it."""
    spied = {}
    delivered = NetworkBackend._message_delivered
    arrived = LogGOPSBackend._on_arrival

    def message_delivered(self, src, dst, size, tag, post_time, time):
        record = MessageRecord(src, dst, size, tag, post_time, time)
        spied.setdefault(getattr(self, "shard_id", 0), []).append(record)
        delivered(self, src, dst, size, tag, post_time, time)

    def on_arrival(self, time, payload):
        spied.setdefault(0, []).append(MessageRecord(*payload, time))
        arrived(self, time, payload)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NetworkBackend, "_message_delivered", message_delivered)
        patch.setattr(LogGOPSBackend, "_on_arrival", on_arrival)
        yield spied


def _list_path(spied):
    """What the list path returned: one backend's list, or the shards' lists
    concatenated in shard order and stably sorted on the merge key."""
    if len(spied) == 1:
        return spied[0]
    merged = [m for shard in sorted(spied) for m in spied[shard]]
    return sorted(merged, key=lambda m: (m.completion_time, m.src, m.dst, m.tag))


def _mixed_ring(n=6):
    """Every rank sends its successor one eager (64 B) and one rendezvous
    (4 KiB under ``_RENDEZVOUS``) message, on two streams."""
    b = GoalBuilder(n, name="mixed")
    for r in range(n):
        rank = b.rank(r)
        rank.send(64, dst=(r + 1) % n, tag=1)
        rank.send(4096, dst=(r + 1) % n, tag=2, cpu=1)
        rank.recv(64, src=(r - 1) % n, tag=1)
        rank.recv(4096, src=(r - 1) % n, tag=2, cpu=1)
    return b.build()


def _old_mct(records):
    """``SimulationResult.mct_statistics`` as it read over a list of records."""
    latencies = sorted(m.completion_latency for m in records)
    n = len(latencies)
    p99_index = min(n - 1, int(round(0.99 * (n - 1))))
    return {
        "mean": sum(latencies) / n,
        "p99": float(latencies[p99_index]),
        "max": float(latencies[-1]),
        "count": float(n),
    }


def _shard_result(records):
    return SimulationResult(
        finish_time_ns=0,
        rank_finish_times_ns=[0],
        stats=NetworkStats(),
        message_records=MessageRecords.from_columns(np.array(records, dtype=np.uint64).reshape(-1, 6)),
    )


def _tied_shards(seed, shards=2, per_shard=200):
    """Per shard, records drawn from a tiny key space, so many tie on the
    whole merge key; sizes are unique, so any reordering of a tie shows."""
    rng = random.Random(seed)
    size = iter(range(1, shards * per_shard + 1))
    return [
        [
            MessageRecord(rng.randrange(3), rng.randrange(3), next(size), rng.randrange(2), 0, rng.randrange(4))
            for _ in range(per_shard)
        ]
        for _ in range(shards)
    ]


def _assert_merge_is_list_path(per_shard):
    one_rank = GoalBuilder(1, name="empty").build()
    merged = _merge_results([(_shard_result(rs), 0) for rs in per_shard], one_rank, 0.0)
    assert merged.message_records == _list_path(dict(enumerate(per_shard)))


class TestDifferential:
    @pytest.mark.parametrize("params", [LogGOPSParams(), _RENDEZVOUS], ids=["eager", "rendezvous"])
    def test_lgs(self, params):
        with delivery_spy() as spied:
            result = simulate(_mixed_ring(), backend="lgs", config=SimulationConfig(loggops=params))
        assert len(result.message_records) == 12
        assert result.message_records == spied[0]

    def test_lgs_takes_both_paths(self):
        # the rendezvous cell delivers its 4 KiB messages through
        # _message_delivered, its 64 B ones through the inlined eager arrival
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            delivered = NetworkBackend._message_delivered
            patch.setattr(
                NetworkBackend,
                "_message_delivered",
                lambda self, *a: calls.append(a[2]) or delivered(self, *a),
            )
            simulate(_mixed_ring(), backend="lgs", config=SimulationConfig(loggops=_RENDEZVOUS))
        assert sorted(calls) == [4096] * 6

    @pytest.mark.parametrize("cc", ["mprdma", "ndp"])
    def test_packet(self, cc):
        # small buffers: drops (or NDP trims) and retransmissions
        config = SimulationConfig(
            topology="fat_tree", nodes_per_tor=4, oversubscription=4.0,
            cc_algorithm=cc, buffer_size=1 << 14, seed=3,
        )
        with delivery_spy() as spied:
            result = simulate(all_to_all(16, 1 << 15), backend="htsim", config=config)
        assert result.stats.retransmissions > 0
        assert len(result.message_records) == 240
        assert result.message_records == spied[0]

    def test_two_shards(self):
        schedule = build_collective_schedule("allreduce", "recursive_doubling", 16, 4096)
        config = SimulationConfig(topology="fat_tree", routing="minimal", cc_algorithm="mprdma", shards=2)
        with inline_workers(), delivery_spy() as spied:
            result = simulate(schedule, backend="htsim", config=config)
        assert sorted(spied) == [0, 1]
        assert result.message_records == _list_path(spied)

    @pytest.mark.parametrize("seed", range(4))
    def test_sharded_merge_with_ties(self, seed):
        _assert_merge_is_list_path(_tied_shards(seed))

    def test_cotenant_cell_in_a_worker(self):
        with workers.Workers(1, None, "cell", "parallel=None") as pool:
            (records, spied), = pool.map(_cotenant_cell, 1)
        assert isinstance(records, MessageRecords) and len(records) == 2 * 8
        assert records == spied[0]


def _cotenant_cell(state, k):
    """Worker task: one co-tenant run, its records and the spy's list."""
    jobs = [ClusterJob(_mixed_ring(4)), ClusterJob(_mixed_ring(4), arrival_ns=500)]
    with delivery_spy() as spied:
        result = run_cotenant(jobs, backend="lgs", baseline=False).result
    return result.message_records, spied


class TestMctStatistics:
    def test_simulated_records(self):
        result = simulate(all_to_all(12, 2048), backend="lgs")
        old = _old_mct(list(result.message_records))
        new = result.mct_statistics()
        assert {k: v.hex() for k, v in new.items()} == {k: v.hex() for k, v in old.items()}

    def test_latencies_past_float_precision(self):
        # a float sum would round these; the exact integer sum does not
        rng = random.Random(5)
        rows = [
            MessageRecord(0, 1, 8, 0, post, post + rng.randrange(1 << 60))
            for post in (rng.randrange(1 << 62) for _ in range(101))
        ]
        store = MessageRecords.from_columns(np.array(rows, dtype=np.uint64))
        result = SimulationResult(0, [0], NetworkStats(), message_records=store)
        new = result.mct_statistics()
        assert {k: v.hex() for k, v in new.items()} == {k: v.hex() for k, v in _old_mct(rows).items()}

    def test_no_records_is_an_error(self):
        result = simulate(all_to_all(4, 64), backend="lgs", config=SimulationConfig(collect_message_records=False))
        with pytest.raises(ValueError, match="no message records"):
            result.mct_statistics()


class TestView:
    @pytest.fixture(scope="class")
    def records(self):
        return simulate(_mixed_ring(), backend="lgs").message_records

    def test_empty_when_collection_is_off(self):
        result = simulate(_mixed_ring(), backend="lgs", config=SimulationConfig(collect_message_records=False))
        assert result.message_records == [] and result.message_records == ()
        assert not result.message_records and len(result.message_records) == 0

    def test_indexing(self, records):
        listed = list(records)
        assert all(type(m) is MessageRecord for m in listed)
        assert records[0] == listed[0] and records[-1] == listed[-1] and records[-12] == listed[0]
        for bad in (12, -13):
            with pytest.raises(IndexError):
                records[bad]

    def test_slices(self, records):
        listed = list(records)
        for cut in (slice(2, 7), slice(None, None, -2), slice(-3, None), slice(5, 2)):
            assert records[cut] == listed[cut]

    def test_sorted_tuple_repr(self, records):
        listed = list(records)
        assert sorted(records) == sorted(listed)
        assert tuple(records) == tuple(listed)
        assert repr(records) == repr(listed)

    def test_equality(self, records):
        listed = list(records)
        assert records == listed and records == tuple(listed)
        assert records != listed[:-1] and records != listed[::-1]
        assert records == MessageRecords.from_columns(records.columns())
        assert records != MessageRecords()

    def test_pickle_is_raw_bytes(self, records):
        data = pickle.dumps(records)
        assert pickle.loads(data) == records
        assert len(data) < 48 * len(records) + 200

    def test_columns_are_read_only(self, records):
        columns = records.columns()
        assert columns.shape == (12, 6) and columns.dtype == np.uint64
        with pytest.raises(ValueError):
            columns[0, 0] = 1


def test_at_most_64_bytes_retained_per_message():
    schedule = all_to_all(112, 64)  # 12 432 messages
    simulate(schedule, backend="lgs")  # warm the schedule's cached columns
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = simulate(schedule, backend="lgs")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    messages = len(result.message_records)
    assert messages >= 10_000
    assert retained / messages <= 64


def _unstable_lexsort(keys):
    """``np.lexsort`` that breaks ties backwards: a sort that is not stable."""
    return _LEXSORT((-np.arange(len(keys[0])),) + tuple(keys))


def test_an_unstable_merge_fails_the_differential():
    per_shard = _tied_shards(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "lexsort", _unstable_lexsort)
        with pytest.raises(AssertionError):
            _assert_merge_is_list_path(per_shard)
