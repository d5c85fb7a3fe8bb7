"""Every row of the differential registry, and every recorded mutant.

``tests/differential.py`` holds the registry: each fast engine against its
reference on the inputs of the suites it replaced and on the benchmark's
seven workloads at ``--smoke`` size.  ``tests/mutants.py`` holds the breaks
that must fail those comparisons.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

import differential
from mutants import MUTANTS
from repro.network.backend import LINK_COLUMNS, GroupStats, LinkStats, MessageRecords, NetworkStats, SimulationResult
from repro.network.control_plane import ConvergenceRecord

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
#: from the one in ``_RESULT``; ``backend`` and ``wall_clock_s`` are not simulated.
_CHANGED = {
    "finish_time_ns": 2,
    "rank_finish_times_ns": [2],
    "message_records": MessageRecords.from_columns(np.ones((1, 6))),
    "ops_completed": 2,
    "groups": {0: GroupStats(0, finish_ns=2)},
    "links": LinkStats.of(["a->b"]),
    "convergence_records": [ConvergenceRecord(0, "link_down", (0,), 0, 0, "oracle")],
}
_RESULT = SimulationResult(1, [1], NetworkStats(), ops_completed=1)


def test_every_result_field_is_compared_or_named_unsimulated():
    unsimulated = {"stats", "backend", "wall_clock_s"}
    assert {f.name for f in fields(SimulationResult)} == set(_CHANGED) | unsimulated


@pytest.mark.parametrize("field_name", sorted(_CHANGED))
def test_everything_sees_a_changed_result_field(field_name):
    changed = replace(_RESULT, **{field_name: _CHANGED[field_name]})
    assert differential.everything(changed) != differential.everything(_RESULT)


def test_everything_sees_every_changed_stats_field():
    for f in fields(NetworkStats):
        changed = replace(_RESULT, stats=replace(NetworkStats(), **{f.name: 1}))
        assert differential.everything(changed) != differential.everything(_RESULT), f.name


def test_everything_sees_every_changed_link_column():
    one, ones = LinkStats.of(["a->b"]), np.ones(1, dtype=np.int64)
    records = [one, *(replace(one, **{column: ones}) for column in LINK_COLUMNS)]
    records += [replace(one, group_bytes={0: ones}), replace(one, group_bytes={0: 0 * ones})]
    seen = [differential.everything(replace(_RESULT, links=links)) for links in records]
    assert all(a != b for i, a in enumerate(seen) for b in seen[i + 1 :])


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
