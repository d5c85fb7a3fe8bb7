"""The one sweep record: every name a sweep's callers read, and its pickling.

Each sweep returns :class:`repro.sweep.SweepRecord` ``(key, digest,
values)`` records, read by name through ``key``, then ``values``, then
``digest``.  The inputs are the ``sweep/*`` rows of ``tests/differential.py``
(which compare serial and parallel records), run here in-process.
"""
import copy
import math
import pickle

import pytest

import differential
from repro.sweep import SweepRecord

#: Per sweep, every field and property of the entry class its records
#: replaced (host wall clock and the ms/us unit helpers are gone).
NAMES = {
    "sweep/topology-routing-lgs": (
        "topology routing backend finish_time_ns messages_delivered packets_dropped "
        "packets_ecn_marked max_queue_bytes"
    ),
    "sweep/collective": (
        "topology collective algorithm resolved autotuner_pick size num_ranks backend "
        "finish_time_ns messages_delivered bytes_delivered"
    ),
    "sweep/inference": (
        "topology backend process rate_rps offered_rps requests good_requests throughput_rps "
        "goodput_rps ttft_p50_ns ttft_p99_ns ttft_p999_ns tpot_p50_ns tpot_p99_ns mean_batch "
        "finish_time_ns"
    ),
    "sweep/resilience": (
        "topology routing backend failure_rate failed_links finish_time_ns messages_delivered "
        "packets_dropped packets_rerouted packets_lost_to_faults baseline_finish_ns "
        "control_plane time_to_recover_ns packets_blackholed slowdown"
    ),
    "sweep/interference": (
        "topology strategy backend job arrival_ns finish_time_ns runtime_ns isolated_runtime_ns "
        "messages_delivered bytes_delivered contended_link_count slowdown"
    ),
}


def _records(name):
    fn, kwargs = differential.INPUTS[name]()
    return fn(**kwargs)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_a_record_answers_every_name_its_entry_class_had(name):
    records = _records(name)
    assert {type(r) for r in records} == {SweepRecord}
    record = records[-1]
    for attr in NAMES[name].split():
        value = getattr(record, attr)
        assert value is not None and not (isinstance(value, float) and math.isnan(value)), attr
    for gone in ("wall_clock_s", "finish_time_ms", "finish_time_us", "runtime_ms", "ttft_p999_ms"):
        assert not hasattr(record, gone)
    assert pickle.loads(pickle.dumps(records)) == records
    assert copy.deepcopy(record) == record


def test_a_name_is_read_from_key_then_values_then_digest():
    record = SweepRecord({"a": 1}, {"a": 3, "b": 3, "c": 3}, {"a": 2, "b": 2})
    assert (record.a, record.b, record.c) == (1, 2, 3)
    with pytest.raises(AttributeError, match="SweepRecord has no 'd'"):
        record.d
    # dunders and the fields themselves never reach the three dicts
    for name in ("__setstate__", "__len__"):
        assert not hasattr(SweepRecord({name: 1}, {}, {}), name)
    bare = SweepRecord.__new__(SweepRecord)
    with pytest.raises(AttributeError):
        bare.key
    with pytest.raises(AttributeError):
        bare.topology


def test_a_jobs_values_shadow_its_cells_shared_digest():
    records = _records("sweep/interference")
    first, second = records[:2]
    assert (first.strategy, first.job, second.job) == ("packed", "a", "b")
    # one co-tenant run per cell: its digest is computed once and shared
    assert first.digest is second.digest
    assert first.finish_time_ns == first.values["finish_time_ns"] < first.digest["finish_time_ns"]
    assert first.messages_delivered + second.messages_delivered == first.digest["messages_delivered"]
    assert first.slowdown == first.runtime_ns / first.isolated_runtime_ns


def test_resilience_slowdown_is_against_the_groups_healthy_cell():
    records = _records("sweep/resilience")
    for r in records:
        healthy = next(
            h for h in records
            if (h.routing, h.control_plane, h.failure_rate) == (r.routing, r.control_plane, 0.0)
        )
        assert r.baseline_finish_ns == healthy.finish_time_ns
        assert r.slowdown == r.finish_time_ns / healthy.finish_time_ns
