"""Tests for MPI-style FIFO message matching."""
from repro.network.matching import MessageMatcher


class TestMessageMatcher:
    def test_recv_before_arrival(self):
        m = MessageMatcher()
        assert m.post_recv(0, 1, 5, "recv-A") is None
        assert m.post_arrival(0, 1, 5, "msg-1") == "recv-A"

    def test_arrival_before_recv(self):
        m = MessageMatcher()
        assert m.post_arrival(0, 1, 5, "msg-1") is None
        assert m.post_recv(0, 1, 5, "recv-A") == "msg-1"

    def test_fifo_order_of_arrivals(self):
        m = MessageMatcher()
        m.post_arrival(0, 1, 0, "first")
        m.post_arrival(0, 1, 0, "second")
        assert m.post_recv(0, 1, 0, "r1") == "first"
        assert m.post_recv(0, 1, 0, "r2") == "second"

    def test_fifo_order_of_recvs(self):
        m = MessageMatcher()
        m.post_recv(0, 1, 0, "r1")
        m.post_recv(0, 1, 0, "r2")
        assert m.post_arrival(0, 1, 0, "m1") == "r1"
        assert m.post_arrival(0, 1, 0, "m2") == "r2"

    def test_channels_are_independent(self):
        m = MessageMatcher()
        m.post_recv(0, 1, 1, "tag1")
        assert m.post_arrival(0, 1, 2, "msg-tag2") is None
        assert m.post_arrival(0, 1, 1, "msg-tag1") == "tag1"

    def test_direction_matters(self):
        m = MessageMatcher()
        m.post_recv(0, 1, 0, "r")
        assert m.post_arrival(1, 0, 0, "reverse-direction") is None

    def test_pending_counters(self):
        m = MessageMatcher()
        m.post_recv(0, 1, 0, "r")
        m.post_arrival(2, 3, 0, "m")
        assert m.pending_recv_count() == 1
        assert m.pending_arrival_count() == 1
        m.post_arrival(0, 1, 0, "x")
        m.post_recv(2, 3, 0, "y")
        assert m.pending_recv_count() == 0
        assert m.pending_arrival_count() == 0
