"""The flat message-record store (:class:`repro.network.backend.MessageRecords`).

Records used to be a list of :class:`MessageRecord` namedtuples, appended one
per delivered message.  The store keeps six integers per message in one
``array('Q')``.  The differential that holds it to the list it replaced, on
every delivery path and through the sharded merge even when records tie on
the whole sort key, is the ``records/*`` rows of ``tests/differential.py``.
Held here:

* the LogGOPS rendezvous cell does take both delivery paths, and a co-tenant
  cell run in a worker process returns the spy's list;
* ``mct_statistics`` returns the list formula's floats bit for bit;
* the view reads as the list did (``==``, indexing, slices, ``sorted``,
  ``tuple``, ``repr``, pickling);
* it retains at most 64 bytes per message.
"""
from __future__ import annotations

import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from repro import workers
from repro.cluster import ClusterJob, run_cotenant
from repro.network import SimulationConfig
from repro.network.backend import (
    MessageRecord,
    MessageRecords,
    NetworkBackend,
    NetworkStats,
    SimulationResult,
)
from repro.scheduler import simulate
from repro.schedgen.synthetic import all_to_all
from differential import RING_RENDEZVOUS, delivery_spy, mixed_ring


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


class TestDifferential:
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
            simulate(mixed_ring(), backend="lgs", config=SimulationConfig(loggops=RING_RENDEZVOUS))
        assert sorted(calls) == [4096] * 6

    def test_cotenant_cell_in_a_worker(self):
        with workers.Workers(1, None, "cell", "parallel=None") as pool:
            (records, spied), = pool.map(_cotenant_cell, 1)
        assert isinstance(records, MessageRecords) and len(records) == 2 * 8
        assert records == spied[0]


def _cotenant_cell(state, k):
    """Worker task: one co-tenant run, its records and the spy's list."""
    jobs = [ClusterJob(mixed_ring(4)), ClusterJob(mixed_ring(4), arrival_ns=500)]
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
        return simulate(mixed_ring(), backend="lgs").message_records

    def test_empty_when_collection_is_off(self):
        result = simulate(mixed_ring(), backend="lgs", config=SimulationConfig(collect_message_records=False))
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
