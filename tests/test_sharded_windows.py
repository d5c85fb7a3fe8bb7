"""Property tests for the sharded driver's conservative windows.

``run_sharded(..., window_log=log)`` records one ``(floor, until,
epoch_times)`` triple per barrier window.  Over seeded pseudo-random fault
schedules these tests check the invariants the determinism proof leans on:

* a fault epoch is consumed only once the global floor has reached it
  (every earlier event has run on every shard, none at/after it has);
* no window's ``until`` ever crosses an epoch that has not been consumed;
* every window respects the plan lookahead (``until <= floor + lookahead``);
* every fault epoch in the schedule is applied exactly once, in time order,
  including epochs that fire after the last packet has drained;
* snapshot jump-windows (adaptive routing) carry no epochs and land on a
  cadence boundary;
* the ``min_retransmit_timeout <= lookahead`` rejection names both
  computed values so the error is actionable without a debugger.
"""
from __future__ import annotations

import random

import pytest

from repro.collectives import build_collective_schedule
from repro.network.config import SimulationConfig
from repro.network.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultSchedule
from repro.network.packet.sharded import plan_shards, run_sharded
from repro.network.topology import build_topology
from inline_workers import inline_workers


def _schedule(size=4096):
    return build_collective_schedule(
        "allreduce", "recursive_doubling", 16, size, name="window-props"
    )


# one flap per link keeps the schedule self-consistent (a second link_down
# on an already-dead link would be rejected as contradictory); the pool
# spans distinct ToRs so at most two of a ToR's four uplinks are ever down
_FLAP_POOL = [
    "tor0->core0",
    "tor1->core1",
    "tor2->core2",
    "tor3->core3",
    "tor0->core1",
    "tor1->core2",
    "tor2->core3",
    "tor3->core0",
]


def _random_faults(seed):
    rng = random.Random(seed)
    links = rng.sample(_FLAP_POOL, rng.randint(1, 4))
    events = []
    for link in links:
        down = rng.randrange(500, 25_000)
        up = down + rng.randrange(100, 8_000)
        events.append(FaultEvent(down, LINK_DOWN, link))
        events.append(FaultEvent(up, LINK_UP, link))
    return FaultSchedule(events=tuple(events))


def _epoch_times(config, num_ranks=16):
    topology = build_topology(config, num_ranks)
    return [t for t, _ in config.faults.grouped_events(topology)]


def _check_window_invariants(log, lookahead, expected_epochs):
    """Assert the barrier-window invariants over one recorded run."""
    assert log, "windowed run must record at least one window"
    consumed = []
    remaining = list(expected_epochs)
    for floor, until, epoch_times in log:
        if until < floor:
            # idle-gap snapshot jump: no traffic, no epochs
            assert epoch_times == ()
            continue
        for t in epoch_times:
            # consumed only once the global floor reached the epoch
            assert t <= floor, f"epoch {t} consumed before floor {floor}"
            assert remaining and remaining[0] == t, (
                f"epoch {t} consumed out of order (expected {remaining[:1]})"
            )
            remaining.pop(0)
            consumed.append(t)
        assert until <= floor + lookahead, (
            f"window [{floor}, {until}] exceeds lookahead {lookahead}"
        )
        if remaining:
            # never run past an unconsumed epoch
            assert until < remaining[0], (
                f"window edge {until} crossed unconsumed epoch {remaining[0]}"
            )
    assert consumed == list(expected_epochs), (
        "every fault epoch must be applied exactly once, in order"
    )


class TestWindowInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 424242])
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_random_fault_schedules(self, seed, shards):
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            seed=seed,
            shards=shards,
            faults=_random_faults(seed),
        )
        schedule = _schedule()
        expected = _epoch_times(config)
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, shards)
        log = []
        with inline_workers():
            result, _ = run_sharded(schedule, config, window_log=log)
        assert result.ops_completed > 0
        _check_window_invariants(log, plan.lookahead, expected)

    def test_no_faults_means_no_epochs_in_log(self):
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            shards=2,
        )
        schedule = _schedule()
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, 2)
        log = []
        with inline_workers():
            run_sharded(schedule, config, window_log=log)
        assert all(epochs == () for _, _, epochs in log)
        assert all(until == floor + plan.lookahead for floor, until, _ in log)

    def test_post_traffic_epochs_still_apply(self):
        # a flap long after the last packet drains: the driver must keep
        # opening windows until the schedule is exhausted (the convergence
        # ledger records transitions even when no packet witnesses them)
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            shards=2,
            faults=FaultSchedule(
                events=(
                    FaultEvent(5_000_000, LINK_DOWN, "tor0->core0"),
                    FaultEvent(5_000_500, LINK_UP, "tor0->core0"),
                )
            ),
        )
        schedule = _schedule()
        expected = _epoch_times(config)
        log = []
        with inline_workers():
            result, _ = run_sharded(schedule, config, window_log=log)
        applied = [t for _, _, epochs in log for t in epochs]
        assert applied == expected
        assert result.finish_time_ns < 5_000_000

    def test_same_time_events_share_one_epoch(self):
        # two transitions declared at the same nanosecond group into a
        # single epoch and are applied at one barrier, in declaration order
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            shards=2,
            faults=FaultSchedule(
                events=(
                    FaultEvent(3000, LINK_DOWN, "tor0->core0"),
                    FaultEvent(3000, LINK_DOWN, "tor1->core1"),
                    FaultEvent(9000, LINK_UP, "tor0->core0"),
                    FaultEvent(9000, LINK_UP, "tor1->core1"),
                )
            ),
        )
        schedule = _schedule()
        assert _epoch_times(config) == [3000, 9000]
        log = []
        with inline_workers():
            run_sharded(schedule, config, window_log=log)
        applied = [t for _, _, epochs in log for t in epochs]
        assert applied == [3000, 9000]

    @pytest.mark.parametrize("cadence", [0, 1000])
    def test_snapshot_jumps_carry_no_epochs(self, cadence):
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="adaptive",
            cc_algorithm="mprdma",
            shards=2,
            load_snapshot_ns=cadence,
            faults=_random_faults(3),
        )
        schedule = _schedule()
        expected = _epoch_times(config)
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, 2)
        interval = cadence or topology.min_link_latency()
        log = []
        with inline_workers():
            run_sharded(schedule, config, window_log=log)
        _check_window_invariants(log, plan.lookahead, expected)
        for floor, until, epochs in log:
            if until < floor:
                assert epochs == ()
                assert until % interval == 0, "jump must land on a cadence boundary"


class TestShardedValidation:
    def test_retransmit_timeout_error_names_computed_values(self):
        schedule = _schedule()
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            shards=2,
        )
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, 2)
        bad = config.replace(min_retransmit_timeout=plan.lookahead)
        with pytest.raises(ValueError) as excinfo:
            run_sharded(schedule, bad)
        message = str(excinfo.value)
        assert f"min_retransmit_timeout ({plan.lookahead} ns)" in message
        assert f"lookahead ({plan.lookahead} ns)" in message
        assert "later window" in message

    def test_timeout_one_above_lookahead_accepted(self):
        schedule = _schedule()
        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            routing="minimal",
            cc_algorithm="mprdma",
            shards=2,
        )
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, 2)
        ok = config.replace(min_retransmit_timeout=plan.lookahead + 1)
        with inline_workers():
            result, _ = run_sharded(schedule, ok)
        assert result.ops_completed > 0
