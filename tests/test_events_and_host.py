"""Tests for the discrete-event queue and the host compute model."""
import pytest

from repro.network.events import EventQueue
from repro.network.host import HostCompute


class TestEventQueue:
    def test_events_run_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(30, lambda t, p: seen.append(p), "c")
        q.schedule(10, lambda t, p: seen.append(p), "a")
        q.schedule(20, lambda t, p: seen.append(p), "b")
        q.run()
        assert seen == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        seen = []
        for label in "abc":
            q.schedule(5, lambda t, p: seen.append(p), label)
        q.run()
        assert seen == ["a", "b", "c"]

    def test_now_advances_with_events(self):
        q = EventQueue()
        times = []
        q.schedule(7, lambda t, p: times.append(q.now))
        q.schedule(12, lambda t, p: times.append(q.now))
        final = q.run()
        assert times == [7, 12]
        assert final == 12

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.schedule(10, lambda t, p: q.schedule(5, lambda *_: None))
        with pytest.raises(ValueError):
            q.run()

    def test_schedule_after_uses_current_time(self):
        q = EventQueue()
        seen = []
        q.schedule(10, lambda t, p: q.schedule_after(5, lambda t2, p2: seen.append(t2)))
        q.run()
        assert seen == [15]

    def test_until_limit(self):
        q = EventQueue()
        seen = []
        q.schedule(10, lambda t, p: seen.append(t))
        q.schedule(100, lambda t, p: seen.append(t))
        q.run(until=50)
        assert seen == [10]
        assert len(q) == 1

    def test_max_events_guard(self):
        q = EventQueue()

        def rearm(t, p):
            q.schedule_after(1, rearm)

        q.schedule(0, rearm)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)

    def test_max_events_executes_at_most_n(self):
        # regression: the limit used to let the (N+1)th event run before raising
        q = EventQueue()
        executed = []

        def rearm(t, p):
            executed.append(t)
            q.schedule_after(1, rearm)

        q.schedule(0, rearm)
        with pytest.raises(RuntimeError):
            q.run(max_events=5)
        assert len(executed) == 5

    def test_max_events_not_raised_when_queue_drains_exactly(self):
        q = EventQueue()
        seen = []
        for t in range(5):
            q.schedule(t, lambda time, p: seen.append(time))
        assert q.run(max_events=5) == 4
        assert seen == [0, 1, 2, 3, 4]

    def test_events_scheduled_during_run_are_processed(self):
        q = EventQueue()
        seen = []
        q.schedule(1, lambda t, p: q.schedule(2, lambda t2, p2: seen.append("nested")))
        q.run()
        assert seen == ["nested"]

    def test_peek_and_empty(self):
        q = EventQueue()
        assert q.empty() and q.peek_time() is None
        q.schedule(4, lambda t, p: None)
        assert q.peek_time() == 4 and not q.empty()


class TestHostCompute:
    def test_reservations_serialise_on_one_stream(self):
        host = HostCompute()
        s1, e1 = host.reserve(0, 0, earliest=0, duration=100)
        s2, e2 = host.reserve(0, 0, earliest=0, duration=50)
        assert (s1, e1) == (0, 100)
        assert (s2, e2) == (100, 150)

    def test_streams_are_independent(self):
        host = HostCompute()
        host.reserve(0, 0, 0, 100)
        s, e = host.reserve(0, 1, 0, 50)
        assert (s, e) == (0, 50)

    def test_ranks_are_independent(self):
        host = HostCompute()
        host.reserve(0, 0, 0, 100)
        s, _ = host.reserve(1, 0, 0, 10)
        assert s == 0

    def test_earliest_respected(self):
        host = HostCompute()
        s, e = host.reserve(0, 0, earliest=500, duration=10)
        assert (s, e) == (500, 510)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            HostCompute().reserve(0, 0, 0, -1)

    def test_busy_accounting(self):
        host = HostCompute()
        host.reserve(3, 0, 0, 70)
        host.reserve(3, 1, 0, 30)
        assert host.busy_ns[3] == 100

    def test_rank_finish_time(self):
        host = HostCompute()
        host.reserve(2, 0, 0, 100)
        host.reserve(2, 5, 400, 100)
        assert host.rank_finish_time(2) == 500
        assert host.rank_finish_time(9) == 0

    def test_reset(self):
        host = HostCompute()
        host.reserve(0, 0, 0, 100)
        host.reset()
        assert host.free_at(0, 0) == 0
        assert host.busy_ns == {}
