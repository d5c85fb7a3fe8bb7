"""The packet backend's pull pacer, and tripwires against a second engine or benchmark.

Each backend ships one engine; the differentials that hold it to its
reference (the event-per-transmission packet oracle, the five-heap-event
LogGOPS oracle, same inputs twice, serial against parallel sweeps) are rows
of ``tests/differential.py``.
"""
from __future__ import annotations

from repro.network.config import SimulationConfig


class TestPullPacing:
    """The cumulative byte-time pull pacer (sub-ns precision satellite)."""

    def _emission_times(self, bandwidth, pulls=50):
        """Drive a packet backend's pull pacer directly and record emissions."""
        from repro.network.packet.backend import PacketBackend

        backend = PacketBackend()
        backend.setup(
            4,
            SimulationConfig(
                nodes_per_tor=4, cc_algorithm="ndp", link_bandwidth=bandwidth
            ),
        )
        times = []
        backend._send_control = lambda flow, kind, seq, route, now: times.append(now)

        class _FakeFlow:
            dst = 0
            ack_route = (0,)

        for _ in range(pulls):
            backend._request_pull(_FakeFlow(), 0)
        backend.events.run()
        return times

    def test_long_run_rate_is_exact(self):
        # mtu=4096 at 25 B/ns: exact spacing is 163.84 ns; the legacy
        # per-gap formula emitted every 164 ns, drifting 8 ns over 50 pulls
        times = self._emission_times(bandwidth=25.0)
        assert times[0] == 0
        assert times[-1] == round(49 * 4096 / 25.0)  # == 8028, not 49*164 == 8036

    def test_sub_ns_gaps_not_clamped(self):
        # at 8192 B/ns an MTU takes 0.5 ns; the legacy formula clamped the
        # gap to 1 ns and halved the pull rate
        times = self._emission_times(bandwidth=8192.0)
        assert times[-1] == round(49 * 4096 / 8192.0)  # 24.5 -> 24 (half-even)
        # several pulls share a nanosecond instead of being spread out
        assert len(set(times)) < len(times)

    def test_monotone_emissions(self):
        times = self._emission_times(bandwidth=25.0)
        assert all(b >= a for a, b in zip(times, times[1:]))


def test_one_engine_per_backend_tripwire():
    """A second engine must not come back behind a flag unnoticed."""
    import dataclasses
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    banned = re.compile(
        r"packet_batching|loggops_batching|route_caching|use_cache|\bLinkQueue\("
    )
    hits = [
        f"{path.relative_to(root)}:{n}: {line.strip()}"
        for top in ("src", "docs")
        for path in sorted((root / top).rglob("*"))
        if path.suffix in (".py", ".md")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "\n".join(hits)
    fields = [f.name for f in dataclasses.fields(SimulationConfig)]
    assert not [f for f in fields if f.endswith("_batching") or f == "route_caching"]


def test_one_benchmark_tripwire():
    """benchmarks/e2e/ is the only benchmark; a second harness must not come back."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    banned = re.compile(r"repro[./]perf\b|atlahs bench|BENCH_|benchmarks/baselines")
    paths = [root / "README.md"] + [
        path
        for top in ("src", "docs", ".github")
        for path in sorted((root / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    ]
    hits = [
        f"{path.relative_to(root)}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "\n".join(hits)
