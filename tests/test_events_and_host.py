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

    def test_events_scheduled_during_run_are_processed(self):
        q = EventQueue()
        seen = []
        q.schedule(1, lambda t, p: q.schedule(2, lambda t2, p2: seen.append("nested")))
        q.run()
        assert seen == ["nested"]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(4, lambda t, p: None)
        assert q.peek_time() == 4
        q.run()
        assert q.peek_time() is None


def _ready(q, callback, payload=None):
    """Queue ``callback`` as due now, the way the LogGOPS backend posts ops."""
    q._ready.append((q.now, 0, q._seq, callback, payload))
    q._seq += 1


class TestReadyQueue:
    """Ready entries run in the order a heap holding them would pop them."""

    def test_ready_entry_waits_for_older_heap_entry_at_now(self):
        q = EventQueue()
        seen = []

        def first(t, p):
            q.schedule(t, lambda t2, p2: seen.append("heap, older"))
            _ready(q, lambda t2, p2: seen.append(("ready", t2)))
            q.schedule(t, lambda t2, p2: seen.append("heap, younger"))

        q.schedule(10, first)
        q.run()
        assert seen == ["heap, older", ("ready", 10), "heap, younger"]

    def test_ready_entries_run_before_later_heap_entries(self):
        q = EventQueue()
        seen = []
        q.schedule(5, lambda t, p: seen.append(t))
        _ready(q, lambda t, p: seen.append(("ready", t)))
        _ready(q, lambda t, p: _ready(q, lambda t2, p2: seen.append(("nested", t2))))
        assert q.peek_time() == 0
        assert q.run() == 5
        assert seen == [("ready", 0), ("nested", 0), 5]
        assert q.executed == 4


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

    def test_free_at_tracks_each_stream(self):
        host = HostCompute()
        host.reserve(3, 0, 0, 70)
        host.reserve(3, 1, 0, 30)
        # a zero-length reservation starts when its stream becomes free
        assert [host.reserve(3, stream, 0, 0)[0] for stream in (0, 1, 2)] == [70, 30, 0]
