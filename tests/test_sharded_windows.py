"""Property tests for the sharded driver's conservative windows.

``run_sharded(..., window_log=log)`` records one ``(floor, until)`` pair per
barrier window.  Timed faults ride each shard's own event queue, as they do
in the serial engine, so a window needs no bound but its lookahead.  Over
seeded pseudo-random fault schedules these tests check:

* every window spans exactly the plan lookahead (``until == floor +
  lookahead``): no fault event clamps a window edge;
* every shard applies every timed fault event once, at its time, in the
  schedule's order (same-time events in declaration order);
* snapshot jump-windows (adaptive routing) land on a cadence boundary, and
  every other window stays within the lookahead;
* a flap after the last packet drained still applies, and its convergence
  records equal the serial engine's;
* the ``min_retransmit_timeout <= lookahead`` rejection names both
  computed values so the error is actionable without a debugger.

The ``sharded/random-faults-seed*`` rows of ``tests/differential.py`` hold
the results of the same schedules to shard-count invariance.
"""
from __future__ import annotations

import pytest

from differential import allreduce, flap, random_faults
from repro.network.config import SimulationConfig
from repro.network.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultSchedule
from repro.network.packet.sharded import ShardPacketBackend, plan_shards, run_sharded
from repro.network.topology import build_topology
from repro.scheduler import GoalScheduler
from inline_workers import inline_workers

_TREE = SimulationConfig(topology="fat_tree", nodes_per_tor=4, routing="minimal", cc_algorithm="mprdma")


def _run(config, monkeypatch):
    """Run ``config`` sharded in-process: the result, the window log, the
    plan, and each shard's applied fault events as ``(time, kind, ids)``."""
    schedule = allreduce()
    applied = {}
    apply_fault = ShardPacketBackend._apply_fault

    def spy(self, time, payload):
        kind, ids = payload
        applied.setdefault(self.shard_id, []).append((time, kind, list(ids)))
        apply_fault(self, time, payload)

    monkeypatch.setattr(ShardPacketBackend, "_apply_fault", spy)
    log = []
    with inline_workers():
        result, _ = run_sharded(schedule, config, window_log=log)
    plan = plan_shards(build_topology(config, schedule.num_ranks), schedule.num_ranks, config.shards)
    return result, log, plan, applied


def _assert_every_shard_replays_the_schedule(config, plan, applied):
    expected = config.faults.resolved_events(build_topology(config, len(plan.rank_owner)))
    assert applied == {shard: expected for shard in range(plan.num_shards)}


class TestWindowInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 424242])
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_random_fault_schedules(self, seed, shards, monkeypatch):
        config = _TREE.replace(seed=seed, shards=shards, faults=random_faults(seed))
        result, log, plan, applied = _run(config, monkeypatch)
        assert result.ops_completed > 0
        assert log and all(until == floor + plan.lookahead for floor, until in log)
        _assert_every_shard_replays_the_schedule(config, plan, applied)

    def test_same_time_events_apply_in_declaration_order(self, monkeypatch):
        config = _TREE.replace(
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
        _, _, plan, applied = _run(config, monkeypatch)
        _assert_every_shard_replays_the_schedule(config, plan, applied)
        assert [t for t, _, _ in applied[0]] == [3000, 3000, 9000, 9000]

    def test_snapshot_jumps_land_on_a_cadence_boundary(self, monkeypatch):
        config = _TREE.replace(routing="adaptive", shards=2, faults=random_faults(3))
        _, log, plan, applied = _run(config, monkeypatch)
        interval = build_topology(config, len(plan.rank_owner)).min_link_latency()
        jumps = [until for floor, until in log if until < floor]
        assert jumps, "an idle gap must be crossed by a snapshot jump"
        assert all(until % interval == 0 for until in jumps), "jump must land on a cadence boundary"
        assert all(until <= floor + plan.lookahead for floor, until in log)
        _assert_every_shard_replays_the_schedule(config, plan, applied)

    def test_post_traffic_flap_converges_as_in_serial(self, monkeypatch):
        # a flap long after the last packet drains: the driver keeps opening
        # windows until every shard's queue is empty, so the convergence
        # wave records its transitions even when no packet witnesses them
        config = _TREE.replace(shards=2, control_plane="dv", faults=flap("tor0->core0", 5_000_000, 5_000_500))
        result, _, plan, applied = _run(config, monkeypatch)
        serial = GoalScheduler(allreduce(), "htsim", config.replace(shards=1), validate=False).run()
        assert result.finish_time_ns < 5_000_000
        assert len(result.convergence_records) == 2
        assert result.convergence_records == serial.convergence_records
        _assert_every_shard_replays_the_schedule(config, plan, applied)


class TestShardedValidation:
    def test_retransmit_timeout_error_names_computed_values(self):
        schedule = allreduce()
        config = _TREE.replace(shards=2)
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
        schedule = allreduce()
        config = _TREE.replace(shards=2)
        topology = build_topology(config, schedule.num_ranks)
        plan = plan_shards(topology, schedule.num_ranks, 2)
        ok = config.replace(min_retransmit_timeout=plan.lookahead + 1)
        with inline_workers():
            result, _ = run_sharded(schedule, ok)
        assert result.ops_completed > 0
