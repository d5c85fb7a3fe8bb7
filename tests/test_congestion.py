"""Unit tests of the congestion-control window algorithms."""
import pytest

from repro.network.congestion import (
    DCTCP,
    MPRDMA,
    FixedWindow,
    NDPReceiverDriven,
    Swift,
    create_congestion_control,
)


def _mk(cls, **kwargs):
    defaults = dict(mtu=4096, initial_window_packets=10, base_rtt_ns=10_000)
    defaults.update(kwargs)
    return cls(**defaults)


class TestFactory:
    def test_create_by_name(self):
        for name, cls in (
            ("mprdma", MPRDMA),
            ("swift", Swift),
            ("dctcp", DCTCP),
            ("ndp", NDPReceiverDriven),
            ("fixed", FixedWindow),
        ):
            cc = create_congestion_control(name, mtu=4096, initial_window_packets=8, base_rtt_ns=5000)
            assert isinstance(cc, cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            create_congestion_control("bbr", 4096, 8, 5000)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            _mk(MPRDMA, mtu=0)
        with pytest.raises(ValueError):
            _mk(MPRDMA, initial_window_packets=0)


class TestWindowSemantics:
    def test_can_send_respects_window(self):
        cc = _mk(FixedWindow, initial_window_packets=2)
        assert cc.can_send(0)
        assert cc.can_send(4096)
        assert not cc.can_send(2 * 4096)

    def test_can_send_always_allows_first_packet(self):
        cc = _mk(FixedWindow, initial_window_packets=1)
        assert cc.can_send(0)

    def test_window_bytes(self):
        cc = _mk(FixedWindow, initial_window_packets=3)
        assert cc.window_bytes() == 3 * 4096

    @pytest.mark.parametrize("cls", [MPRDMA, Swift, DCTCP, FixedWindow, NDPReceiverDriven])
    def test_on_ack_returns_the_window_it_leaves(self, cls):
        # the packet backend injects against this value until the next ACK
        cc = _mk(cls, initial_window_packets=4)
        for marked, rtt in ((False, 1), (True, 1), (False, 10**7)) * 5:
            assert cc.on_ack(4096, ecn_marked=marked, rtt_ns=rtt) == cc.window_bytes()


class TestMPRDMA:
    def test_unmarked_acks_grow_window(self):
        cc = _mk(MPRDMA)
        before = cc.cwnd
        for _ in range(20):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=10_000)
        assert cc.cwnd > before

    def test_marked_acks_shrink_window(self):
        cc = _mk(MPRDMA)
        before = cc.cwnd
        for _ in range(5):
            cc.on_ack(4096, ecn_marked=True, rtt_ns=10_000)
        assert cc.cwnd < before

    def test_loss_collapses_window(self):
        cc = _mk(MPRDMA)
        cc.on_loss()
        assert cc.cwnd == cc.min_window

    def test_window_never_below_minimum(self):
        cc = _mk(MPRDMA, initial_window_packets=1)
        for _ in range(50):
            cc.on_ack(4096, ecn_marked=True, rtt_ns=10_000)
        assert cc.cwnd >= cc.min_window


class TestSwift:
    def test_low_delay_grows_window(self):
        cc = _mk(Swift)
        before = cc.cwnd
        for _ in range(20):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=5_000)
        assert cc.cwnd > before

    def test_high_delay_shrinks_window(self):
        cc = _mk(Swift, initial_window_packets=4)
        before = cc.cwnd
        for _ in range(40):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=200_000)
        assert cc.cwnd < before

    def test_decrease_bounded_by_max_mdf(self):
        cc = _mk(Swift, initial_window_packets=4)
        start = cc.cwnd
        # one full window of very late acks triggers exactly one decrease
        for _ in range(int(start)):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=10_000_000)
        assert cc.cwnd >= start * (1.0 - cc.max_mdf) - 1e-9

    def test_ecn_is_ignored_by_swift(self):
        cc = _mk(Swift)
        a = _mk(Swift)
        for _ in range(10):
            cc.on_ack(4096, ecn_marked=True, rtt_ns=5_000)
            a.on_ack(4096, ecn_marked=False, rtt_ns=5_000)
        assert cc.cwnd == a.cwnd

    def test_loss_reduces_window(self):
        cc = _mk(Swift)
        before = cc.cwnd
        cc.on_loss()
        assert cc.cwnd < before


class TestDCTCP:
    def test_alpha_tracks_marking_fraction(self):
        cc = _mk(DCTCP, initial_window_packets=4)
        for _ in range(100):
            cc.on_ack(4096, ecn_marked=True, rtt_ns=10_000)
        assert cc.alpha > 0.3

    def test_unmarked_traffic_keeps_alpha_zero(self):
        cc = _mk(DCTCP)
        for _ in range(50):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=10_000)
        assert cc.alpha == 0.0
        assert cc.cwnd > cc.initial_window_packets

    def test_loss_halves_window(self):
        cc = _mk(DCTCP, initial_window_packets=8)
        cc.on_loss()
        assert cc.cwnd == pytest.approx(4.0)


class TestNDP:
    def test_marked_receiver_driven(self):
        assert NDPReceiverDriven.receiver_driven is True
        assert not MPRDMA.receiver_driven

    def test_feedback_is_noop(self):
        cc = _mk(NDPReceiverDriven)
        w = cc.cwnd
        cc.on_ack(4096, True, 1_000_000)
        cc.on_loss()
        assert cc.cwnd == w

    def test_header_size_positive(self):
        assert _mk(NDPReceiverDriven).header_size > 0


# ---------------------------------------------------------------------------
# Window growth/shrink boundary cases, per module (satellite of the
# co-tenancy PR: previously only integration-covered).
# ---------------------------------------------------------------------------
class TestWindowBoundaries:
    def test_can_send_exact_window_edge(self):
        # a packet that exactly fills the window is allowed; one byte past is not
        cc = _mk(FixedWindow, initial_window_packets=3)
        assert cc.can_send(2 * 4096)  # 2 in flight + 1 more == window
        assert not cc.can_send(2 * 4096 + 1)

    def test_window_bytes_truncates_fractional_cwnd(self):
        cc = _mk(MPRDMA, initial_window_packets=2)
        cc.on_ack(4096, ecn_marked=True, rtt_ns=1)  # 2.0 -> 1.5 packets
        assert cc.cwnd == pytest.approx(1.5)
        assert cc.window_bytes() == int(1.5 * 4096)

    def test_clamp_exactly_at_minimum_is_stable(self):
        cc = _mk(MPRDMA, initial_window_packets=1)
        assert cc.cwnd == cc.min_window
        cc.on_ack(4096, ecn_marked=True, rtt_ns=1)
        assert cc.cwnd == cc.min_window  # 1.0 - 0.5 clamps back to 1.0


class TestMPRDMABoundaries:
    def test_exact_per_ack_arithmetic(self):
        cc = _mk(MPRDMA, initial_window_packets=4)
        cc.on_ack(4096, ecn_marked=False, rtt_ns=1)
        assert cc.cwnd == pytest.approx(4.0 + 1.0 / 4.0)
        cc.on_ack(4096, ecn_marked=True, rtt_ns=1)
        assert cc.cwnd == pytest.approx(4.25 - 0.5)

    def test_loss_collapse_is_exact_from_any_state(self):
        cc = _mk(MPRDMA, initial_window_packets=100)
        for _ in range(10):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=1)
        cc.on_loss()
        assert cc.cwnd == cc.min_window

    def test_alternating_marks_drift_down(self):
        # decrease per mark (0.5) outweighs increase per unmarked ack (1/cwnd
        # < 0.5 for cwnd > 2), so fair alternation shrinks toward 2 packets
        cc = _mk(MPRDMA, initial_window_packets=8)
        for _ in range(50):
            cc.on_ack(4096, ecn_marked=True, rtt_ns=1)
            cc.on_ack(4096, ecn_marked=False, rtt_ns=1)
        assert cc.cwnd < 3.0
        assert cc.cwnd >= cc.min_window


class TestSwiftBoundaries:
    def test_rtt_exactly_at_target_still_grows(self):
        cc = _mk(Swift, initial_window_packets=4)
        before = cc.cwnd
        cc.on_ack(4096, ecn_marked=False, rtt_ns=cc.target_delay_ns)
        assert cc.cwnd > before

    def test_rtt_one_past_target_decreases_only_once_per_window(self):
        cc = _mk(Swift, initial_window_packets=4)
        start = cc.cwnd
        late = cc.target_delay_ns + 1
        # fewer acks than a window: no decrease yet
        for _ in range(int(start) - 1):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=late)
        assert cc.cwnd == pytest.approx(start)
        # the window-completing ack triggers exactly one decrease
        cc.on_ack(4096, ecn_marked=False, rtt_ns=late)
        assert cc.cwnd < start

    def test_huge_excess_delay_bounded_by_max_mdf(self):
        cc = _mk(Swift, initial_window_packets=4)
        start = cc.cwnd
        for _ in range(int(start)):
            cc.on_ack(4096, ecn_marked=False, rtt_ns=10 ** 9)
        assert cc.cwnd == pytest.approx(start * (1.0 - cc.max_mdf))

    def test_zero_base_rtt_keeps_positive_target(self):
        cc = _mk(Swift, base_rtt_ns=0)
        assert cc.target_delay_ns == 1

    def test_loss_decrease_exact(self):
        cc = _mk(Swift, initial_window_packets=10)
        cc.on_loss()
        assert cc.cwnd == pytest.approx(10 * (1.0 - cc.max_mdf))


class TestDCTCPBoundaries:
    def test_alpha_updates_only_at_window_boundary(self):
        # the boundary is dynamic (additive increase grows cwnd per ack), so
        # alpha must stay zero for at least the initial window's worth of
        # acks and then jump to exactly g after one fully marked window
        cc = _mk(DCTCP, initial_window_packets=4)
        acks = 0
        while cc.alpha == 0.0 and acks < 50:
            cc.on_ack(4096, ecn_marked=True, rtt_ns=1)
            acks += 1
        assert acks >= 4  # never before a full initial window
        assert cc.alpha == pytest.approx(cc.g)  # one fully marked window

    def test_unmarked_window_never_shrinks(self):
        cc = _mk(DCTCP, initial_window_packets=4)
        for _ in range(8):
            before = cc.cwnd
            cc.on_ack(4096, ecn_marked=False, rtt_ns=1)
            assert cc.cwnd >= before

    def test_single_mark_in_window_triggers_reduction(self):
        # one mark in an otherwise clean window still reduces at the boundary
        cc = _mk(DCTCP, initial_window_packets=4)
        grown = _mk(DCTCP, initial_window_packets=4)
        for i in range(10):  # enough acks to complete at least one window
            cc.on_ack(4096, ecn_marked=(i == 0), rtt_ns=1)
            grown.on_ack(4096, ecn_marked=False, rtt_ns=1)
        assert cc.cwnd < grown.cwnd

    def test_loss_halves_and_clamps(self):
        cc = _mk(DCTCP, initial_window_packets=1)
        cc.on_loss()
        assert cc.cwnd == cc.min_window


class TestFixedWindowBoundaries:
    def test_acks_never_change_window(self):
        cc = _mk(FixedWindow, initial_window_packets=6)
        for marked in (True, False):
            cc.on_ack(4096, ecn_marked=marked, rtt_ns=10 ** 9)
        assert cc.cwnd == 6.0

    def test_repeated_losses_floor_at_min_window(self):
        cc = _mk(FixedWindow, initial_window_packets=6)
        for _ in range(10):
            cc.on_loss()
        assert cc.cwnd == cc.min_window


class TestNdpTrimEdgeCases:
    """NDP's trim/pull path through the packet backend (edge behaviour)."""

    def _incast_result(self, buffer_size):
        from repro.network import SimulationConfig
        from repro.schedgen import incast
        from repro.scheduler import simulate

        config = SimulationConfig(
            topology="fat_tree",
            nodes_per_tor=4,
            cc_algorithm="ndp",
            buffer_size=buffer_size,
            mtu=4096,
            seed=2,
        )
        return simulate(incast(8, 1 << 16), backend="htsim", config=config)

    def test_overflow_trims_instead_of_dropping(self):
        # a buffer of exactly two MTUs forces the incast to trim headers
        result = self._incast_result(buffer_size=2 * 4096)
        assert result.stats.packets_trimmed > 0
        assert result.stats.packets_dropped == 0
        # trimmed packets are retransmitted via pulls; delivery completes
        assert result.stats.messages_delivered == 7
        assert result.ops_completed > 0

    def test_ample_buffer_never_trims(self):
        result = self._incast_result(buffer_size=1 << 20)
        assert result.stats.packets_trimmed == 0
        assert result.stats.messages_delivered == 7
