"""Every row of the differential registry, and every recorded mutant.

``tests/differential.py`` holds the registry: each fast engine against its
reference on the inputs of the suites it replaced and on the benchmark's
seven workloads at ``--smoke`` size.  ``tests/mutants.py`` holds the breaks
that must fail those comparisons.  The contract of
:meth:`SimulationResult.digest`, which every simulation row compares, is
tested here too: it sees every simulated fact and no host fact, reads the
message records as a multiset and round-trips through JSON exactly.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np
import pytest

import differential
from inline_workers import inline_workers
from mutants import MUTANTS
from repro.network.backend import (
    LINK_COLUMNS,
    ROUTE_CACHE_COUNTERS,
    GroupStats,
    LinkStats,
    MessageRecords,
    NetworkStats,
    SimulationResult,
)
from repro.network.control_plane import ConvergenceRecord
from repro.scheduler import simulate

#: Checks outside the registry that claim teeth, and the mutant that shows them.
GUARDED = {
    "tests/test_collective_emission.py digests": "exchange-swaps-send-recv",
    "tests/test_grouping_oracle.py grid": "grouping-pairs-lifo",
    "tests/test_workers.py dead sweep worker": "serial-rerun-on-worker-error",
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow_sharded) if name in differential.SLOW else name
        for name in differential.INPUTS
    ],
)
def test_engine_matches_reference(name):
    differential.check(name)


def test_every_named_mutant_is_registered():
    named = {name for pair in differential.PAIRS for name in pair.mutants} | set(GUARDED.values())
    assert sorted(named - set(MUTANTS)) == [], "a check names a mutant that is not registered"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    mutant = MUTANTS[name]
    with pytest.MonkeyPatch.context() as patch:
        mutant.patch(patch)
        with pytest.raises(mutant.raises):
            mutant.caught_by()


def test_every_input_has_a_row():
    assert sorted(name for name in differential.INPUTS if not differential.ROWS[name]) == []


def test_every_benchmark_workload_has_a_smoke_row():
    benchmarked = {name.split("/", 1)[1] for name in differential.INPUTS if name.startswith("bench/")}
    assert benchmarked == {w.name for w in differential.workloads()}


#: A value for each simulated field of :class:`SimulationResult` that differs
#: from the one in ``_RESULT``.
_CHANGED = {
    "finish_time_ns": 2,
    "rank_finish_times_ns": [2],
    "message_records": MessageRecords.from_columns(np.ones((1, 6))),
    "ops_completed": 2,
    "groups": {0: GroupStats(0, finish_ns=2)},
    "links": LinkStats.of(["a->b"]),
    "convergence_records": [ConvergenceRecord(0, "link_down", (0,), 0, 0, "oracle")],
}
#: The host facts of a result, each with a changed value.
_HOST = {"backend": "htsim", "wall_clock_s": 2.5}
_RESULT = SimulationResult(1, [1], NetworkStats(), ops_completed=1)


def test_every_result_field_is_digested_or_a_host_fact():
    assert {f.name for f in fields(SimulationResult)} == set(_CHANGED) | set(_HOST) | {"stats"}


@pytest.mark.parametrize("field_name", sorted(_CHANGED))
def test_digest_sees_a_changed_result_field(field_name):
    changed = replace(_RESULT, **{field_name: _CHANGED[field_name]})
    assert changed.digest() != _RESULT.digest()


def test_digest_sees_every_changed_stats_field_but_the_route_cache():
    for f in fields(NetworkStats):
        changed = replace(_RESULT, stats=replace(NetworkStats(), **{f.name: 1}))
        assert (changed.digest() == _RESULT.digest()) == (f.name in ROUTE_CACHE_COUNTERS), f.name


def test_digest_ignores_the_host_facts():
    assert replace(_RESULT, **_HOST).digest() == _RESULT.digest()


def test_digest_sees_every_changed_link_column():
    one, ones = LinkStats.of(["a->b"]), np.ones(1, dtype=np.int64)
    records = [one, LinkStats.of(["b->a"]), *(replace(one, **{column: ones}) for column in LINK_COLUMNS)]
    records += [replace(one, group_bytes={0: ones}), replace(one, group_bytes={0: 0 * ones})]
    seen = [replace(_RESULT, links=links).digest() for links in records]
    assert all(a != b for i, a in enumerate(seen) for b in seen[i + 1 :])


def test_digest_reads_message_records_as_a_multiset():
    rows = np.arange(18).reshape(3, 6)
    digests = [
        replace(_RESULT, message_records=MessageRecords.from_columns(order)).digest()
        for order in (rows, rows[::-1], rows[[0, 0, 2]])
    ]
    assert digests[0] == digests[1] != digests[2]


def test_digest_round_trips_exactly_through_json():
    faulted = differential.INPUTS["sharded/allreduce32K-fat_tree-ecmp-dv-flap"]()
    cotenant = differential.INPUTS["sharded/cotenant-job-stats"]()
    with inline_workers():  # a sharded run's merged facts, in this process
        runs = [
            SimulationResult(0, [], NetworkStats()),
            replace(_RESULT, **_CHANGED),
            simulate(faulted.schedule, "htsim", faulted.config),
            simulate(cotenant.schedule, "htsim", cotenant.config.replace(shards=2), op_groups=cotenant.op_groups),
        ]
    assert runs[2].convergence_records and runs[3].groups
    for result in runs:
        digest = result.digest()
        assert json.loads(json.dumps(digest)) == digest


def test_digest_of_an_empty_result_is_defined():
    digest = SimulationResult(0, [], NetworkStats()).digest()
    assert set(digest) == differential.KEYS - {"events", "route_cache_lookups", "order", *ROUTE_CACHE_COUNTERS}
    assert digest["groups"] == digest["convergence_records"] == []
    assert all(len(digest[k]) == 32 for k in ("rank_finish_times_ns", "links", "message_records"))


#: The ways a DATA packet can end; the ledger sums them.
OUTCOMES = (
    "packets_delivered",
    "packets_dropped",
    "packets_trimmed",
    "packets_lost_to_faults",
    "packets_blackholed",
)


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_ledger_balances_on_each_outcome(outcome):
    differential.assert_ledger(NetworkStats(packets_sent=2, **{outcome: 2}))
    with pytest.raises(AssertionError):
        differential.assert_ledger(NetworkStats(packets_sent=2, **{outcome: 1}))
