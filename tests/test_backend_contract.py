"""What a backend inherits from :class:`NetworkBackend` (docs/architecture.md).

A backend is only its timing model.  The toy backend below models nothing
but a fixed per-message latency, yet — built solely on the shared base — it
replays collectives through the scheduler, reports per-rank finish times,
message records and per-group stats, honours static and timed faults on its
fabric (including a convergent control plane) and folds route-cache
counters.  The remaining tests pin the pieces of the contract that used to
be written once per backend: the control-plane construction condition and
the field-wise stats folds sharded runs depend on; and a backend is named by
the one name its results report.
"""
import dataclasses

import numpy as np
import pytest

from repro.goal import GoalBuilder
from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.network.backend import (
    LINK_COLUMNS,
    GroupStats,
    LinkStats,
    NetworkBackend,
    NetworkStats,
    SimulationResult,
    create_backend,
)
from repro.network.faults import LINK_DOWN, resolve_link_ids
from repro.schedgen import all_to_all, ring_allreduce_microbenchmark
from repro.scheduler import GoalScheduler, simulate

LATENCY = 1_000


class FixedLatencyBackend(NetworkBackend):
    """Every message arrives ``LATENCY`` ns after its send starts; nothing else is modelled."""

    name = "toy"

    def setup(self, num_ranks, config):
        super().setup(num_ranks, config)
        self._bring_up_fabric()

    def _start_send(self, time, payload):
        rank, dst, size, tag, stream, op_id = payload
        self.on_complete(time, (rank, op_id))
        self.routing.select_route(rank, dst, size)  # timing ignores it; caches count it
        arrival = time + LATENCY
        self._message_delivered(rank, dst, size, tag, time, arrival, op_id)
        recv_op = self.matcher.post_arrival(rank, dst, tag, arrival)
        if recv_op is not None:
            self.events.schedule(arrival, self.on_complete, (dst, recv_op))

    def _post_recv(self, time, payload):
        rank, src, size, tag, stream, op_id = payload
        arrival = self.matcher.post_recv(src, rank, tag, op_id)
        if arrival is not None:
            self.events.schedule(max(arrival, time), self.on_complete, (rank, op_id))

    def run(self, on_complete):
        self._require_setup()
        self.on_complete = on_complete
        return self.events.run()


def _config(**kwargs) -> SimulationConfig:
    return SimulationConfig(topology="fat_tree", nodes_per_tor=4, **kwargs)


class TestToyBackend:
    def test_replays_a_collective_schedule(self):
        schedule = ring_allreduce_microbenchmark(8, 1 << 16)
        result = simulate(schedule, backend=FixedLatencyBackend(), config=_config())
        assert result.backend == "toy"
        assert result.ops_completed == schedule.num_ops()
        assert len(result.rank_finish_times_ns) == 8
        assert all(t > 0 for t in result.rank_finish_times_ns)
        assert max(result.rank_finish_times_ns) == result.finish_time_ns
        assert result.finish_time_ns % LATENCY == 0
        assert len(result.message_records) == result.stats.messages_delivered > 0
        assert {m.completion_latency for m in result.message_records} == {LATENCY}
        assert result.stats.bytes_delivered == sum(m.size for m in result.message_records)

    def test_a_bare_backend_completes_through_the_handler_handed_over(self):
        # the one rule a caller without a scheduler keeps: hand the
        # completion handler over right after setup, before issuing
        backend = FixedLatencyBackend()
        backend.setup(2, _config())
        done = []
        backend.on_complete = handler = lambda time, payload: done.append((time, payload))
        backend.issue_calc(0, 0, 500, 0, 0)
        backend.issue_calc(1, 0, 0, 1, 0)  # a zero-cost join completes now
        backend.issue_send(0, 1, 64, 7, 1, 2, 0)
        backend.issue_recv(1, 0, 64, 7, 0, 3, 0)
        assert backend.run(handler) == LATENCY
        assert done == [(0, (1, 1)), (0, (0, 2)), (500, (0, 0)), (LATENCY, (1, 3))]
        # the join, the send and the receive were posted as ready entries,
        # the 500 ns calc and the receive's completion on the heap
        assert backend.events.executed == 5
        # an op issued before the handover fails when it finishes, naming it
        backend = FixedLatencyBackend()
        backend.setup(2, _config())
        backend.issue_calc(1, 0, 500, 4, 0)
        with pytest.raises(RuntimeError, match="op 4 of rank 1 finished with no completion handler"):
            backend.run(handler)

    def test_requires_setup_and_positive_ranks(self):
        backend = FixedLatencyBackend()
        with pytest.raises(RuntimeError, match="before setup"):
            backend.now()
        with pytest.raises(ValueError, match="num_ranks"):
            backend.setup(0, _config())

    def test_attribution_follows_op_groups_not_tags(self):
        # one tag window split by rank parity: a message belongs to the
        # group of its send op, whatever its tag or its receive's group
        b = GoalBuilder(4, name="one-window")
        for r, size in enumerate((100, 30, 7, 1)):
            b.rank(r).send(size, dst=(r + 1) % 4, tag=7)
            b.rank((r + 1) % 4).recv(size, src=r, tag=7)
        schedule = b.build()
        groups = [[r % 2] * len(ops) for r, ops in enumerate(schedule.ranks)]
        result = simulate(
            schedule, backend=FixedLatencyBackend(), config=_config(), op_groups=groups
        )
        assert result.groups == {
            0: GroupStats(0, finish_ns=LATENCY, messages_delivered=2, bytes_delivered=107),
            1: GroupStats(1, finish_ns=LATENCY, messages_delivered=2, bytes_delivered=31),
        }
        stats = result.stats
        assert sum(g.messages_delivered for g in result.groups.values()) == stats.messages_delivered
        assert sum(g.bytes_delivered for g in result.groups.values()) == stats.bytes_delivered
        # rank 3's send in group -1 is counted nowhere; its receive still
        # finishes group 1
        groups[3] = [1, -1]
        result = simulate(
            schedule, backend=FixedLatencyBackend(), config=_config(), op_groups=groups
        )
        assert [(g.messages_delivered, g.bytes_delivered) for g in result.groups.values()] == [
            (2, 107), (1, 30)
        ]
        assert result.groups[1].finish_ns == LATENCY
        # attribution is off (and costs nothing) without groups
        assert simulate(schedule, backend=FixedLatencyBackend(), config=_config()).groups == {}

    def test_honours_static_and_timed_faults_on_its_topology(self):
        faults = FaultSchedule(
            failed_links=("tor0->core0", "core0->tor0"),
            degraded_links=(("tor1->core1", 0.5),),
            events=(FaultEvent(LATENCY // 2, LINK_DOWN, "tor0->core1"),),
        )
        backend = FixedLatencyBackend()
        healthy = FixedLatencyBackend()
        GoalScheduler(all_to_all(8, 1 << 10), backend=healthy, config=_config()).run()
        result = GoalScheduler(
            all_to_all(8, 1 << 10),
            backend=backend,
            config=_config(faults=faults, control_plane="ls"),
        ).run()
        topo = backend.topology
        down = {
            resolve_link_ids(topo, name)[0]
            for name in ("tor0->core0", "core0->tor0", "tor0->core1")
        }
        assert topo.failed_links == down
        derated = resolve_link_ids(topo, "tor1->core1")[0]
        assert topo.links[derated].bandwidth == healthy.topology.links[derated].bandwidth / 2
        # the convergent control plane rode along: one wave, one record
        assert len(result.convergence_records) == 1
        assert result.stats.time_to_recover_ns == result.convergence_records[0].time_to_recover_ns > 0
        assert result.stats.messages_delivered == 8 * 7

    def test_folds_route_cache_counters(self):
        backend = FixedLatencyBackend()
        # healthy minimal routing draws table-free (no cache traffic at all);
        # route_synthesis=False keeps the picks on the table path
        result = GoalScheduler(
            all_to_all(8, 1 << 10),
            backend=backend,
            config=_config(route_cache_entries=4, route_synthesis=False),
        ).run()
        cache = backend.topology.route_cache_stats()
        assert cache["misses"] > 0 and cache["evictions"] > 0
        assert backend.topology.route_cache_budget == 4
        assert result.stats.route_cache_hits == cache["hits"]
        assert result.stats.route_cache_misses == cache["misses"]
        assert result.stats.route_cache_evictions == cache["evictions"]


class TestControlPlaneCondition:
    """One rule on every backend: a control plane exists iff the protocol is
    convergent *and* the fault schedule is non-empty (NetworkBackend._bring_up_fabric)."""

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_empty_schedule_under_ls_is_the_oracle_run(self, backend):
        schedule = all_to_all(8, 1 << 14)
        runs = {}
        for cp in ("oracle", "ls"):
            scheduler = GoalScheduler(
                schedule, backend=backend, config=_config(control_plane=cp, seed=3)
            )
            runs[cp] = scheduler.run()
            assert scheduler.backend._cp is None
        oracle, ls = runs["oracle"], runs["ls"]
        assert ls.digest() == oracle.digest()
        assert ls.stats == oracle.stats
        assert ls.message_records == oracle.message_records
        assert ls.convergence_records == []

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_faulted_schedule_under_ls_builds_one(self, backend):
        faults = FaultSchedule(events=(FaultEvent(10_000, LINK_DOWN, "tor0->core0"),))
        scheduler = GoalScheduler(
            all_to_all(8, 1 << 14),
            backend=backend,
            config=_config(control_plane="ls", faults=faults),
        )
        result = scheduler.run()
        assert scheduler.backend._cp is not None
        assert len(result.convergence_records) == 1


class TestStatsFolds:
    """A counter added to the stats dataclasses must survive sharded merges."""

    MAX_FIELDS = {"max_queue_bytes", "time_to_recover_ns"}

    def _filled(self, offset):
        values = {}
        for i, f in enumerate(dataclasses.fields(NetworkStats)):
            n = offset * (i + 1)
            values[f.name] = n
        return NetworkStats(**values)

    def test_network_stats_merge_covers_every_field(self):
        a, b = self._filled(3), self._filled(1000)
        merged = a.merge(b)
        for f in dataclasses.fields(NetworkStats):
            x, y, got = getattr(a, f.name), getattr(b, f.name), getattr(merged, f.name)
            if f.name in self.MAX_FIELDS:
                assert got == max(x, y), f.name
            else:
                assert got == x + y, f.name
        assert self.MAX_FIELDS <= {f.name for f in dataclasses.fields(NetworkStats)}
        # pure: the operands are untouched
        assert a == self._filled(3) and b == self._filled(1000)

    def test_group_stats_merge_covers_every_field(self):
        a = GroupStats(2, finish_ns=90, messages_delivered=3, bytes_delivered=50)
        b = GroupStats(2, finish_ns=70, messages_delivered=40, bytes_delivered=600)
        assert a.merge(b) == GroupStats(2, finish_ns=90, messages_delivered=43, bytes_delivered=650)
        assert {f.name for f in dataclasses.fields(GroupStats)} == {
            "group", "finish_ns", "messages_delivered", "bytes_delivered"
        }, "new GroupStats field: extend this test"

    @staticmethod
    def _links(offset, groups):
        links = LinkStats.of(["x", "y"])
        for i, column in enumerate(LINK_COLUMNS):
            setattr(links, column, np.array([offset * (i + 1), 0], dtype=np.int64))
        links.group_bytes = {g: np.array([offset, g], dtype=np.int64) for g in groups}
        return links

    def test_link_stats_merge_sums_every_column(self):
        a, b = self._links(3, (0, 1)), self._links(1000, (1, 2))
        merged = a.merge(b)
        for i, column in enumerate(LINK_COLUMNS):
            assert getattr(merged, column).tolist() == [1003 * (i + 1), 0], column
        assert {g: arr.tolist() for g, arr in merged.group_bytes.items()} == {
            0: [3, 0], 1: [1003, 2], 2: [1000, 2]
        }
        assert merged.names == ("x", "y")
        assert {f.name for f in dataclasses.fields(LinkStats)} == {
            "names", "group_bytes", *LINK_COLUMNS
        }, "new LinkStats field: extend this test"
        # pure: the operands are untouched
        assert a == self._links(3, (0, 1)) and b == self._links(1000, (1, 2))

    def test_sharded_merge_folds_stats_and_groups(self):
        from repro.network.packet.sharded import _merge_results

        def shard(offset, groups):
            return (
                SimulationResult(
                    finish_time_ns=offset,
                    rank_finish_times_ns=[offset, 0],
                    stats=self._filled(offset),
                    ops_completed=offset,
                    groups=groups,
                    links=self._links(offset, groups),
                ),
                offset,
            )

        merged = _merge_results(
            [
                shard(3, {0: GroupStats(0, 3, 1, 10), 1: GroupStats(1, 0, 2, 20)}),
                shard(1000, {1: GroupStats(1, 1000, 5, 50)}),
            ],
            ring_allreduce_microbenchmark(2, 64),
            wall=0.0,
        )
        assert merged.stats == self._filled(3).merge(self._filled(1000))
        assert merged.groups == {
            0: GroupStats(0, 3, 1, 10),
            1: GroupStats(1, 1000, 7, 70),
        }
        assert merged.links == self._links(3, (0, 1)).merge(self._links(1000, (1,)))
        assert merged.finish_time_ns == 1000 and merged.ops_completed == 1003


@pytest.mark.parametrize("name", ["lgs", "htsim"])
def test_a_backend_is_created_by_the_name_it_reports(name):
    assert create_backend(name).name == name


@pytest.mark.parametrize("name", ["ns3", "packet", "loggops", "LGS"])
def test_any_other_name_is_rejected_naming_both(name):
    with pytest.raises(ValueError, match=f"unknown backend '{name}'; expected 'lgs' or 'htsim'"):
        create_backend(name)
