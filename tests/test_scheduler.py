"""Tests for the GOAL scheduler."""
import pytest

from repro.goal import GoalBuilder
from repro.network import SimulationConfig
from repro.scheduler import GoalScheduler, SchedulerDeadlockError, simulate


class TestDependencies:
    def test_chain_executes_fully(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        prev = None
        for i in range(10):
            prev = r.calc(10, requires=[prev] if prev is not None else [])
        res = simulate(b.build(), backend="lgs")
        assert res.ops_completed == 10
        assert res.finish_time_ns == 100

    def test_diamond_dependency(self):
        b = GoalBuilder(1)
        r = b.rank(0)
        a = r.calc(10)
        left = r.calc(20, requires=[a], cpu=0)
        right = r.calc(30, requires=[a], cpu=1)
        r.calc(5, requires=[left, right])
        res = simulate(b.build(), backend="lgs")
        assert res.finish_time_ns == 10 + 30 + 5

    def test_cross_rank_dependency_via_message(self):
        b = GoalBuilder(2)
        c = b.rank(0).calc(1000)
        b.rank(0).send(8, dst=1, tag=1, requires=[c])
        r = b.rank(1).recv(8, src=0, tag=1)
        b.rank(1).calc(500, requires=[r])
        res = simulate(b.build(), backend="lgs")
        assert res.rank_finish_times_ns[1] > 1000

    def test_deadlock_detection_on_missing_send(self):
        b = GoalBuilder(2)
        b.rank(1).recv(8, src=0, tag=1)
        with pytest.raises(SchedulerDeadlockError) as exc:
            simulate(b.build(), backend="lgs", validate=False)
        assert 1 in exc.value.stuck_per_rank or exc.value.stuck_per_rank == {}

    @staticmethod
    def _cyclic(ranks):
        """Every rank receives from its left neighbour before sending right."""
        b = GoalBuilder(ranks)
        for r in range(ranks):
            recv = b.rank(r).recv(8, src=(r - 1) % ranks, tag=0)
            b.rank(r).send(8, dst=(r + 1) % ranks, tag=0, requires=[recv])
        return b.build()

    @pytest.mark.parametrize(
        "backend, config",
        [("lgs", SimulationConfig()), ("htsim", SimulationConfig(topology="single_switch"))],
    )
    def test_deadlock_report_names_the_blocked_receives(self, backend, config):
        with pytest.raises(SchedulerDeadlockError) as exc:
            simulate(self._cyclic(2), backend=backend, config=config)
        message = str(exc.value)
        # every incomplete vertex counts, the never-issued sends included
        assert exc.value.stuck_per_rank == {0: 2, 1: 2}
        assert "4 of 4 operations never completed on 2 ranks" in message
        assert "rank 0 vertex 0 (recv 8 B from 1 tag 0)" in message
        assert "rank 1 vertex 0 (recv 8 B from 0 tag 0)" in message
        assert "pending_recvs=2" in message and "unexpected_messages=0" in message

    def test_deadlock_report_stays_short_at_scale(self):
        with pytest.raises(SchedulerDeadlockError) as exc:
            simulate(self._cyclic(512), backend="lgs")
        message = str(exc.value)
        assert sum(exc.value.stuck_per_rank.values()) == 1024
        assert "rank 7 vertex 0" in message and "rank 8 vertex" not in message
        assert "+504 more ranks" in message
        assert len(message) < 1000

    def test_validation_enabled_by_default(self):
        from repro.goal import GoalValidationError

        b = GoalBuilder(2)
        b.rank(1).recv(8, src=0, tag=1)
        with pytest.raises(GoalValidationError):
            simulate(b.build(), backend="lgs")


class TestResults:
    def test_ops_completed_counts_everything(self):
        b = GoalBuilder(2)
        for i in range(4):
            b.rank(0).send(64, dst=1, tag=i)
            b.rank(1).recv(64, src=0, tag=i)
            b.rank(0).calc(10)
        res = simulate(b.build(), backend="lgs")
        assert res.ops_completed == 12

    def test_rank_finish_times_length(self):
        b = GoalBuilder(3)
        b.rank(0).calc(10)
        b.rank(2).calc(20)
        res = simulate(b.build(), backend="lgs")
        assert len(res.rank_finish_times_ns) == 3
        assert res.rank_finish_times_ns[1] == 0

    def test_wall_clock_recorded(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1)
        res = simulate(b.build(), backend="lgs")
        assert res.wall_clock_s >= 0

    def test_backend_name_in_result(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1)
        assert simulate(b.build(), backend="lgs").backend == "lgs"
        assert (
            simulate(b.build(), backend="htsim", config=SimulationConfig(topology="single_switch")).backend
            == "htsim"
        )

    def test_finish_time_seconds_property(self):
        b = GoalBuilder(1)
        b.rank(0).calc(2_000_000_000)
        res = simulate(b.build(), backend="lgs")
        assert res.finish_time_s == pytest.approx(2.0)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1)
        with pytest.raises(ValueError):
            simulate(b.build(), backend="omnet")

    def test_backend_instance_accepted(self):
        from repro.network.loggops import LogGOPSBackend

        b = GoalBuilder(1)
        b.rank(0).calc(5)
        res = GoalScheduler(b.build(), backend=LogGOPSBackend()).run()
        assert res.finish_time_ns == 5

    def test_backends_agree_on_compute_only_workload(self):
        b = GoalBuilder(2)
        b.rank(0).calc(10_000)
        b.rank(1).calc(20_000)
        cfg = SimulationConfig(topology="single_switch")
        lgs = simulate(b.build(), backend="lgs", config=cfg)
        pkt = simulate(b.build(), backend="htsim", config=cfg)
        assert lgs.finish_time_ns == pkt.finish_time_ns == 20_000


class TestRankRestriction:
    """A shard's scheduler pays for the ranks it owns, not for the whole schedule."""

    def _ring(self, ranks=6):
        b = GoalBuilder(ranks)
        for r in range(ranks):
            c = b.rank(r).calc(100)
            b.rank(r).send(64, dst=(r + 1) % ranks, tag=1, requires=[c])
            b.rank(r).recv(64, src=(r - 1) % ranks, tag=1, requires=[c])
        return b.build()

    def test_no_table_for_a_foreign_rank(self):
        sched = self._ring()
        restricted = GoalScheduler(sched, "htsim", validate=False, ranks=[4, 1])
        assert [table is not None for table in restricted._tables] == [
            False, True, False, False, True, False
        ]
        assert restricted._total_ops == 6
        # op ids stay those of the whole schedule
        assert restricted._offsets == GoalScheduler(sched, "htsim", validate=False)._offsets

    def test_restricted_schedulers_cover_the_schedule_between_them(self):
        sched = self._ring()
        whole = simulate(sched, backend="htsim", config=SimulationConfig(seed=2))
        split = simulate(sched, backend="htsim", config=SimulationConfig(seed=2, shards=2))
        assert split.finish_time_ns == whole.finish_time_ns
        assert split.ops_completed == whole.ops_completed == sched.num_ops()
