"""Determinism of the engines.

Each backend ships one engine.  The packet engine — arithmetic burst link
queues merged from per-link delivery streams — is required to be *exact*
against the textbook event-per-transmission formulation of the same link
model, which lives in ``tests/packet_oracle.py``: for a fixed seed both must
produce bit-identical simulated results (finish times, per-rank finish
times, message records, drop/trim/ECN/retransmission counts, queue peaks).
These tests run engine and oracle across routing strategies and congestion
regimes (drops, ECN marking, NDP trimming and pull pacing) and compare
everything; a deliberately broken ledger shows the comparison can fail.

The oracle is scoped to ``link_latency >= 1`` (see its module docstring);
at ``link_latency=0`` the engine's tie rule is the definition, so there the
tests check the packet ledger's conservation and repeatability instead.

The LogGOPS backend is held to its own oracle in
``tests/test_loggops_oracle.py``; its scenarios here are same-seed-twice
determinism checks.

The parallel sweep engine gets the differential treatment too: worker
processes must return entries identical to the serial engine.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
from __future__ import annotations

import pytest

from packet_oracle import PerTransmissionBackend
from repro.network.config import LogGOPSParams, SimulationConfig
from repro.network.packet import linkqueue
from repro.scheduler import simulate
from repro.schedgen import all_to_all, incast, permutation, ring_allreduce_microbenchmark
from inline_workers import inline_workers  # shards in-process: no spawn per cell


def _run(schedule, backend, config):
    """Everything a run simulated: times, records and every statistic."""
    result = simulate(schedule, backend=backend, config=config, validate=False)
    return {
        "finish": result.finish_time_ns,
        "rank_finish": tuple(result.rank_finish_times_ns),
        "records": tuple(result.message_records),
        **vars(result.stats),
    }


def _assert_exact(schedule, config):
    """The engine reproduces the event-per-transmission oracle bit for bit."""
    assert config.link_latency >= 1  # the oracle's scope
    engine = _run(schedule, "htsim", config)
    oracle = _run(schedule, PerTransmissionBackend(), config)
    assert engine == oracle
    return engine


_LOSSY = dict(nodes_per_tor=4, buffer_size=1 << 16)


class TestPacketBackendExactness:
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "adaptive"])
    def test_alltoall_all_routings(self, routing):
        _assert_exact(
            all_to_all(8, 1 << 14),
            SimulationConfig(nodes_per_tor=4, routing=routing, seed=3),
        )

    @pytest.mark.parametrize("cc", ["mprdma", "dctcp", "swift", "fixed"])
    def test_contended_incast_with_drops_and_ecn(self, cc):
        # small buffers force drops and ECN marks; all must match exactly
        results = _assert_exact(
            incast(12, 1 << 19), SimulationConfig(cc_algorithm=cc, **_LOSSY)
        )
        assert results["packets_dropped"] > 0 or results["packets_ecn_marked"] > 0  # regime sanity

    def test_ndp_trimming_and_pull_pacing(self):
        results = _assert_exact(
            incast(12, 1 << 19), SimulationConfig(cc_algorithm="ndp", **_LOSSY)
        )
        assert results["packets_trimmed"] > 0  # trimming regime actually exercised

    @pytest.mark.parametrize("cc", ["dctcp", "ndp"])
    def test_one_nanosecond_links(self, cc):
        # the edge of the oracle's scope: deliveries land 1 ns after the
        # transmission completes, so same-instant ties are everywhere
        results = _assert_exact(
            incast(12, 1 << 19),
            SimulationConfig(cc_algorithm=cc, link_latency=1, **_LOSSY),
        )
        assert results["packets_dropped"] > 0 or results["packets_trimmed"] > 0

    @pytest.mark.parametrize(
        "topology,extra",
        [
            ("torus", {"torus_dims": (4, 4), "torus_hosts_per_node": 1}),
            ("slimfly", {"slimfly_q": 5, "slimfly_hosts_per_router": 1}),
        ],
    )
    def test_adaptive_on_path_diverse_topologies(self, topology, extra):
        _assert_exact(
            permutation(16, 1 << 16, seed=5),
            SimulationConfig(topology=topology, routing="adaptive", **extra),
        )

    def test_same_seed_same_results_repeated(self):
        config = SimulationConfig(nodes_per_tor=4, routing="adaptive", seed=11)
        a = _run(all_to_all(8, 1 << 15), "htsim", config)
        b = _run(all_to_all(8, 1 << 15), "htsim", config)
        assert a == b

    def test_oracle_catches_a_ledger_that_retires_at_the_departure_instant(
        self, monkeypatch
    ):
        """Break the tie rule (``<=`` for ``<``): the differential must fail."""
        enqueue = linkqueue.BurstLinkQueue.enqueue

        def early_retire(self, packet, now):
            pending = self.pending
            while pending and pending[0][0] <= now:
                self.queued_bytes -= pending.popleft()[1]
            self.head_depart = pending[0][0] if pending else linkqueue._NEVER
            return enqueue(self, packet, now)

        monkeypatch.setattr(linkqueue.BurstLinkQueue, "enqueue", early_retire)
        with pytest.raises(AssertionError):
            _assert_exact(
                incast(12, 1 << 19), SimulationConfig(cc_algorithm="dctcp", **_LOSSY)
            )


class TestZeroLatencyLinks:
    """``link_latency=0``: outside the oracle's scope, the ledger is the rule."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("cc", ["dctcp", "ndp"])
    def test_ledger_conserved_and_repeatable(self, cc, shards):
        config = SimulationConfig(
            cc_algorithm=cc, link_latency=0, shards=shards, **_LOSSY
        )
        schedule = incast(12, 1 << 19)
        with inline_workers():
            first = simulate(schedule, backend="htsim", config=config)
            again = simulate(schedule, backend="htsim", config=config)
        stats = first.stats
        assert stats.packets_trimmed > 0 if cc == "ndp" else stats.packets_dropped > 0
        # every injected DATA packet ends exactly one way (a trimmed header
        # arrives, but as a NACK trigger, not as a delivery)
        assert stats.packets_sent == (
            stats.packets_delivered
            + stats.packets_dropped
            + stats.packets_trimmed
            + stats.packets_lost_to_faults
            + stats.packets_blackholed
        )
        assert stats.messages_delivered == 11
        assert stats.bytes_delivered == 11 * (1 << 19)
        assert (first.finish_time_ns, first.rank_finish_times_ns, vars(stats)) == (
            again.finish_time_ns, again.rank_finish_times_ns, vars(again.stats)
        )
        assert sorted(first.message_records) == sorted(again.message_records)


class TestLogGOPSDeterminism:
    """Same inputs twice: the scalar recurrence has no hidden state."""

    _TORUS = dict(topology="torus", torus_dims=(2, 2), torus_hosts_per_node=2)

    @pytest.mark.parametrize(
        "schedule,config",
        [
            pytest.param(all_to_all(16, 1 << 16), SimulationConfig(), id="eager-flat-L"),
            pytest.param(
                all_to_all(16, 1 << 16),
                SimulationConfig(loggops=LogGOPSParams.hpc_cluster()),
                id="rendezvous",
            ),
            pytest.param(incast(16, 1 << 18), SimulationConfig(), id="coupled-incast"),
            pytest.param(
                all_to_all(8, 1 << 14),
                SimulationConfig(routing="minimal", **_TORUS),
                id="routed-minimal",
            ),
            pytest.param(
                all_to_all(8, 1 << 14),
                SimulationConfig(routing="valiant", **_TORUS),
                id="routed-valiant",
            ),
            pytest.param(
                all_to_all(8, 1 << 14),
                SimulationConfig(routing="adaptive", **_TORUS),
                id="routed-adaptive",
            ),
            pytest.param(
                ring_allreduce_microbenchmark(8, 1 << 20),
                SimulationConfig(),
                id="ring-allreduce",
            ),
        ],
    )
    def test_same_seed_twice(self, schedule, config):
        first = _run(schedule, "lgs", config)
        assert first["messages_delivered"] > 0
        assert first == _run(schedule, "lgs", config)


def _sweep_key(entry):
    """Every SweepEntry field except host wall-clock (which is not simulated)."""
    d = dict(entry.__dict__)
    d.pop("wall_clock_s")
    return d


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        from repro.sweep import default_topology_configs, topology_routing_sweep

        schedule = all_to_all(8, 1 << 13)
        configs = default_topology_configs(8)
        serial = topology_routing_sweep(
            schedule, configs, routings=("minimal", "adaptive"), backend="htsim"
        )
        parallel = topology_routing_sweep(
            schedule, configs, routings=("minimal", "adaptive"), backend="htsim", parallel=2
        )
        assert [_sweep_key(e) for e in serial] == [_sweep_key(e) for e in parallel]

    def test_parallel_lgs_sweep(self):
        from repro.sweep import default_topology_configs, topology_routing_sweep

        schedule = all_to_all(8, 1 << 13)
        configs = default_topology_configs(8)
        serial = topology_routing_sweep(schedule, configs, routings=("minimal",), backend="lgs")
        parallel = topology_routing_sweep(
            schedule, configs, routings=("minimal",), backend="lgs", parallel=3
        )
        assert [_sweep_key(e) for e in serial] == [_sweep_key(e) for e in parallel]


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
