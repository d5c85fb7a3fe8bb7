"""Tests for the multi-job co-tenancy engine (repro.cluster) and its plumbing."""
import re

import pytest

from repro.cluster import (
    TAG_STRIDE,
    ClusterJob,
    build_cotenant_schedule,
    run_cotenant,
)
from repro.goal import GoalBuilder, Op, OpType, delay_schedule
from repro.network import SimulationConfig
from repro.placement import fragmented_placement, random_interleaved_placement, JobRequest
from repro.scheduler import simulate
from repro.sweep import interference_sweep


def _ring(n, size, name, tag=1):
    b = GoalBuilder(n, name=name)
    for r in range(n):
        b.rank(r).send(size, dst=(r + 1) % n, tag=tag)
        b.rank(r).recv(size, src=(r - 1) % n, tag=tag)
    return b.build()


def _alltoall(n, size, name):
    b = GoalBuilder(n, name=name)
    for r in range(n):
        for peer in range(n):
            if peer != r:
                b.rank(r).send(size, dst=peer, tag=r * n + peer + 1)
                b.rank(r).recv(size, src=peer, tag=peer * n + r + 1)
    return b.build()


def _oversub_config(**kwargs):
    base = dict(
        topology="fat_tree", nodes_per_tor=4, oversubscription=4.0, seed=5
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestDelaySchedule:
    def test_zero_delay_is_identity_object(self):
        sched = _ring(4, 1024, "a")
        assert delay_schedule(sched, 0) is sched

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_schedule(_ring(4, 1024, "a"), -1)

    def test_delay_shifts_completion_exactly(self):
        sched = _ring(4, 1 << 14, "a")
        base = simulate(sched, backend="lgs")
        delayed = simulate(delay_schedule(sched, 12_345), backend="lgs")
        assert delayed.finish_time_ns == base.finish_time_ns + 12_345

    def test_delay_gates_every_op(self):
        sched = _ring(4, 1 << 14, "a")
        delayed = delay_schedule(sched, 10)
        for rank in delayed.ranks:
            # the delay calc is the sole root of every non-empty rank
            assert rank.roots() == [0]
            assert rank.ops[0].is_calc and rank.ops[0].size == 10

    def test_delay_shifts_each_vertex_by_one(self):
        b = GoalBuilder(2, name="shifted")
        b.rank(0).send(8, dst=1, tag=1)
        b.rank(1).recv(8, src=0, tag=1)
        delayed = delay_schedule(b.build(), 7)
        assert delayed.ranks[0].ops[1] == Op.send(8, dst=1, tag=1)
        assert delayed.ranks[0].preds == [[], [0]]


class TestBitIdentity:
    """A 1-job co-tenant run must be bit-identical to the plain path."""

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_single_job_identical(self, backend):
        sched = _alltoall(8, 1 << 14, "solo")
        cfg = _oversub_config()
        plain = simulate(sched, backend=backend, config=cfg)
        cot = run_cotenant(
            [ClusterJob(sched)], strategy="packed", backend=backend,
            config=cfg, baseline=False,
        )
        assert cot.result.finish_time_ns == plain.finish_time_ns
        assert cot.result.rank_finish_times_ns == plain.rank_finish_times_ns
        assert cot.result.stats == plain.stats
        assert cot.result.message_records == plain.message_records

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_attribution_never_perturbs_timing(self, backend):
        # same 2-job run with and without op groups: identical results
        jobs = [ClusterJob(_ring(4, 1 << 14, "a")), ClusterJob(_ring(4, 1 << 14, "b"))]
        cfg = _oversub_config()
        plan = build_cotenant_schedule(jobs, strategy="fragmented", group_size=4)
        with_attr = simulate(plan.schedule, backend=backend, config=cfg, op_groups=plan.op_groups)
        without = simulate(plan.schedule, backend=backend, config=cfg)
        assert with_attr.finish_time_ns == without.finish_time_ns
        assert with_attr.rank_finish_times_ns == without.rank_finish_times_ns
        assert with_attr.stats == without.stats
        assert with_attr.message_records == without.message_records
        assert with_attr.groups and not without.groups

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_attribution_follows_op_groups_not_tags(self, backend):
        # one job, one tag window, grouped by rank parity; rank 3's send is
        # in group -1.  A message belongs to its send op's group.
        sched = _ring(4, 1 << 14, "ring")
        groups = [[r % 2] * len(ops) for r, ops in enumerate(sched.ranks)]
        groups[3] = [-1 if kind == OpType.SEND else 1 for kind in sched.ranks[3].kind]
        cfg = _oversub_config(loggops_use_topology=True)  # LogGOPS charges routed links
        res = simulate(sched, backend=backend, config=cfg, op_groups=groups)
        assert set(res.groups) == {0, 1}
        assert [g.messages_delivered for g in res.groups.values()] == [2, 1]
        assert [g.bytes_delivered for g in res.groups.values()] == [2 << 14, 1 << 14]
        stats = res.stats
        assert sum(g.messages_delivered for g in res.groups.values()) == stats.messages_delivered - 1
        assert sum(g.bytes_delivered for g in res.groups.values()) == stats.bytes_delivered - (1 << 14)
        # rank r's host uplink carries only its own sends: rank 3's is
        # charged nowhere
        links = res.links
        uplink = {r: links.names.index(f"host{r}->tor0") for r in range(4)}
        assert [links.group_bytes[r % 2][uplink[r]] > 0 for r in range(3)] == [True] * 3
        assert all(arr[uplink[3]] == 0 for arr in links.group_bytes.values())
        assert max(g.finish_ns for g in res.groups.values()) == res.finish_time_ns


class TestCotenantEngine:
    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_per_job_attribution_sums_to_totals(self, backend):
        jobs = [
            ClusterJob(_ring(4, 1 << 14, "a"), name="a"),
            ClusterJob(_alltoall(4, 1 << 12, "b"), name="b"),
        ]
        res = run_cotenant(
            jobs, strategy="packed", backend=backend,
            config=_oversub_config(), baseline=False,
        )
        total_msgs = sum(o.messages_delivered for o in res.outcomes)
        total_bytes = sum(o.bytes_delivered for o in res.outcomes)
        assert total_msgs == res.result.stats.messages_delivered
        assert total_bytes == res.result.stats.bytes_delivered
        assert res.outcome("a").messages_delivered == 4
        assert res.outcome("b").messages_delivered == 12

    def test_fragmented_placement_shows_attributed_interference(self):
        jobs = [
            ClusterJob(_alltoall(4, 1 << 16, "a"), name="a"),
            ClusterJob(_alltoall(4, 1 << 16, "b"), name="b"),
        ]
        cfg = _oversub_config()
        packed = run_cotenant(jobs, cluster_nodes=8, strategy="packed",
                              backend="htsim", config=cfg)
        frag = run_cotenant(jobs, cluster_nodes=8, strategy="fragmented",
                            backend="htsim", config=cfg, group_size=4)
        # packed: disjoint ToRs, no shared links, no contention slowdown
        assert packed.contended_links() == {}
        for out in packed.outcomes:
            assert out.slowdown == pytest.approx(1.0, abs=0.02)
        # fragmented: both jobs cross the oversubscribed core and slow down
        assert frag.contended_links()
        for out in frag.outcomes:
            assert out.slowdown > packed.outcome(out.name).slowdown + 0.05
            assert frag.result.links.group_bytes[out.job].any()  # per-link attribution present

    def test_arrival_stagger_reduces_interference(self):
        a = _alltoall(4, 1 << 16, "a")
        b = _alltoall(4, 1 << 16, "b")
        cfg = _oversub_config()
        overlap = run_cotenant(
            [ClusterJob(a, name="a"), ClusterJob(b, name="b")],
            cluster_nodes=8, strategy="fragmented", backend="htsim",
            config=cfg, group_size=4,
        )
        staggered = run_cotenant(
            [ClusterJob(a, name="a"), ClusterJob(b, arrival_ns=10_000_000, name="b")],
            cluster_nodes=8, strategy="fragmented", backend="htsim",
            config=cfg, group_size=4,
        )
        # job b arriving after job a drained removes the contention
        assert staggered.outcome("b").slowdown < overlap.outcome("b").slowdown
        assert staggered.outcome("b").slowdown == pytest.approx(1.0, abs=0.02)
        # runtimes are measured from each job's arrival, not from t=0
        assert staggered.outcome("b").finish_ns >= 10_000_000
        assert staggered.outcome("b").runtime_ns < staggered.outcome("b").finish_ns

    def test_shared_nodes_attribute_per_tenant_completion(self):
        jobs = [
            ClusterJob(_ring(4, 1 << 16, "a"), name="a"),
            ClusterJob(_ring(4, 1 << 16, "b"), name="b"),
        ]
        identity = {i: i for i in range(4)}
        res = run_cotenant(
            jobs, cluster_nodes=4, placements=[identity, identity],
            backend="lgs", config=SimulationConfig(), baseline=False,
        )
        # both tenants' fragments are fused onto every node, a's before b's
        assert res.plan.op_groups == [[0] * 2 + [1] * 2] * 4
        # tenants share every NIC: the second tenant must finish later
        assert res.outcome("b").finish_ns > res.outcome("a").finish_ns
        assert res.result.groups[1].finish_ns == res.outcome("b").finish_ns

    def test_rejects_tags_outside_window(self):
        b = GoalBuilder(2, name="huge-tag")
        b.rank(0).send(8, dst=1, tag=TAG_STRIDE)
        b.rank(1).recv(8, src=0, tag=TAG_STRIDE)
        with pytest.raises(ValueError, match="'huge-tag' uses tag 4294967296 >= TAG_STRIDE"):
            build_cotenant_schedule([ClusterJob(b.build())])

    def test_rejects_empty_job_list(self):
        with pytest.raises(ValueError):
            build_cotenant_schedule([])

    def test_rejects_mismatched_placements(self):
        jobs = [ClusterJob(_ring(2, 8, "a")), ClusterJob(_ring(2, 8, "b"))]
        with pytest.raises(ValueError, match="one placement per job"):
            build_cotenant_schedule(jobs, cluster_nodes=4, placements=[{0: 0, 1: 1}])

    @pytest.mark.parametrize(
        "placement, message",
        [
            ({0: 0, 1: 4}, "'a' puts rank 1 on node 4, outside the 4 nodes"),
            ({0: -1, 1: 0}, "'a' puts rank 0 on node -1, outside the 4 nodes"),
            ({0: 1, 1: 1}, "'a' puts ranks 0 and 1 on node 1"),
        ],
        ids=["past-the-cluster", "negative", "two-ranks-one-node"],
    )
    def test_bad_placement_names_schedule_and_node(self, placement, message):
        jobs = [ClusterJob(_ring(2, 8, "a"))]
        with pytest.raises(ValueError, match=message):
            build_cotenant_schedule(jobs, cluster_nodes=4, placements=[placement])
        with pytest.raises(ValueError, match=message):
            run_cotenant(jobs, cluster_nodes=4, placements=[placement],
                         backend="lgs", baseline=False)

    @pytest.mark.parametrize(
        "strategy, kwargs, message",
        [
            ("packed", {"validate": False}, "'packed' takes no argument 'validate'; it accepts none"),
            ("random", {"sed": 3}, "'random' takes no argument 'sed'; it accepts 'seed'"),
            ("locality", {"group_sise": 2},
             "'locality' takes no argument 'group_sise'; it accepts 'topology', 'group_size'"),
        ],
        ids=["packed", "random", "locality"],
    )
    def test_unknown_keyword_fails_at_the_call(self, strategy, kwargs, message):
        # used to surface as a TypeError from inside the strategy
        jobs = [ClusterJob(_ring(2, 8, "a"))]
        with pytest.raises(TypeError, match=f"^placement strategy {message}$"):
            run_cotenant(jobs, strategy=strategy, backend="lgs", **kwargs)

    def test_explicit_placements_refuse_strategy_keywords(self):
        # no strategy runs, so a strategy keyword (here a misspelt seed) used
        # to pass unnoticed and the run went ahead as strategy 'explicit'
        jobs = [ClusterJob(_alltoall(2, 64, "a"))]
        message = "^explicit placements take no placement-strategy argument 'sed'$"
        with pytest.raises(TypeError, match=message):
            build_cotenant_schedule(jobs, cluster_nodes=2, placements=[{0: 0, 1: 1}], sed=3)
        with pytest.raises(TypeError, match=message):
            run_cotenant(jobs, cluster_nodes=2, placements=[{0: 0, 1: 1}],
                         backend="lgs", baseline=False, sed=3)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            ClusterJob(_ring(2, 8, "a"), arrival_ns=-1)

    def test_empty_job_finishes_on_arrival(self):
        # a job with no ops completes nothing; it reports zero runtime from
        # its arrival rather than a negative one
        from repro.goal import GoalSchedule

        jobs = [
            ClusterJob(_ring(2, 1 << 12, "real"), name="real"),
            ClusterJob(GoalSchedule(2, name="empty"), arrival_ns=1000, name="empty"),
        ]
        res = run_cotenant(jobs, backend="lgs", config=SimulationConfig(), baseline=False)
        empty = res.outcome("empty")
        assert empty.finish_ns == 1000
        assert empty.runtime_ns == 0

    def test_duplicate_job_labels_disambiguated(self):
        # two jobs from the same generator share a label; attribution must
        # not collapse them into one entry
        jobs = [ClusterJob(_alltoall(4, 1 << 16, "twin")) for _ in range(2)]
        res = run_cotenant(
            jobs, cluster_nodes=8, strategy="fragmented", backend="htsim",
            config=_oversub_config(), baseline=False, group_size=4,
        )
        names = [o.name for o in res.outcomes]
        assert len(set(names)) == 2
        assert res.contended_links()  # both jobs visible on shared links

    def test_group_strategies_default_to_simulated_topology(self):
        # without group_size/topology kwargs, fragmented derives its groups
        # from the config's fat-tree ToRs (4 hosts each), not the global
        # default of 16 — so two 8-rank jobs on 16 nodes really interleave
        jobs = [
            ClusterJob(_ring(8, 1 << 14, "a"), name="a"),
            ClusterJob(_ring(8, 1 << 14, "b"), name="b"),
        ]
        res = run_cotenant(
            jobs, cluster_nodes=16, strategy="fragmented", backend="htsim",
            config=_oversub_config(), baseline=False,
        )
        nodes_a = set(res.outcome("a").nodes)
        assert {n // 4 for n in nodes_a} == {0, 1, 2, 3}  # all four ToRs


class TestSchedulerGroups:
    def test_op_groups_shape_validated(self):
        sched = _ring(2, 8, "a")
        with pytest.raises(ValueError, match="op_groups"):
            simulate(sched, backend="lgs", op_groups=[[0]])

    def test_ungrouped_ops_excluded(self):
        sched = _ring(2, 8, "a")
        groups = [[0, -1], [-1, 0]]
        res = simulate(sched, backend="lgs", op_groups=groups)
        assert set(res.groups) == {0}


class TestNewPlacements:
    def _jobs(self):
        return [JobRequest(_ring(4, 8, "a")), JobRequest(_ring(4, 8, "b"))]

    def test_fragmented_spreads_across_groups(self):
        p = fragmented_placement(self._jobs(), 8, group_size=4)
        for idx in range(2):
            nodes = p.nodes_of_job(idx)
            groups = {n // 4 for n in nodes}
            assert groups == {0, 1}  # every job touches every group
        # disjoint and complete
        all_nodes = [n for m in p.mappings for n in m.values()]
        assert sorted(all_nodes) == list(range(8))

    def test_fragmented_capacity_error(self):
        with pytest.raises(ValueError):
            fragmented_placement(self._jobs(), 7, group_size=4)

    def test_random_interleaved_deals_alternately(self):
        p = random_interleaved_placement(self._jobs(), 8, seed=9)
        all_nodes = [n for m in p.mappings for n in m.values()]
        assert sorted(all_nodes) == list(range(8))
        # deterministic for a fixed seed
        q = random_interleaved_placement(self._jobs(), 8, seed=9)
        assert p.mappings == q.mappings
        r = random_interleaved_placement(self._jobs(), 8, seed=10)
        assert p.mappings != r.mappings


class TestInterferenceSweep:
    def test_grid_order_and_parallel_equality(self):
        jobs = [
            ClusterJob(_ring(4, 1 << 14, "a"), name="a"),
            ClusterJob(_ring(4, 1 << 14, "b"), name="b"),
        ]
        kwargs = dict(
            strategies=("packed", "fragmented"),
            configs={"ft": _oversub_config()},
            backend="htsim",
            group_size=4,
        )
        serial = interference_sweep(jobs, 8, **kwargs)
        parallel = interference_sweep(jobs, 8, parallel=2, **kwargs)
        assert serial == parallel
        assert [(e.strategy, e.job) for e in serial] == [
            ("packed", "a"), ("packed", "b"),
            ("fragmented", "a"), ("fragmented", "b"),
        ]

    def test_strategy_kwargs_filtered_per_strategy(self):
        # seed applies to random only; group_size to fragmented only —
        # neither may break the other strategies in the same grid
        jobs = [ClusterJob(_ring(2, 1 << 12, "a"), name="a")]
        entries = interference_sweep(
            jobs, 4, strategies=("packed", "random", "fragmented"),
            backend="lgs", seed=3, group_size=2,
        )
        assert len(entries) == 3

    @pytest.mark.parametrize(
        "strategies, kwargs, message",
        [
            (("packed",), {"group_size": 0}, "(packed) takes 'group_size'"),
            (("packed", "fragmented"), {"seed": 3}, "(packed, fragmented) takes 'seed'"),
        ],
        ids=["group_size-packed", "seed-packed-fragmented"],
    )
    def test_keyword_no_listed_strategy_takes_fails_before_any_cell(
        self, monkeypatch, strategies, kwargs, message
    ):
        # used to be dropped for every cell, so the grid ran as if not given
        import repro.sweep

        def no_cells(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(repro.sweep, "_execute_cells", no_cells)
        jobs = [ClusterJob(_alltoall(4, 64, "a"))]
        with pytest.raises(TypeError, match=f"no listed placement strategy {re.escape(message)}$"):
            interference_sweep(jobs, 4, strategies=strategies, backend="lgs", **kwargs)


class TestCotenantCli:
    def test_cli_cotenant_synthetic_specs(self, capsys):
        import json

        from repro.cli import main

        rc = main(
            [
                "cotenant", "alltoall:4:4096", "allreduce:4:4096",
                "--placement", "packed,fragmented", "--group-size", "4",
                "--backend", "htsim", "--nodes-per-tor", "4",
                "--oversubscription", "4.0", "--arrivals", "0,1000",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["strategies"]) == {"packed", "fragmented"}
        packed_jobs = payload["strategies"]["packed"]["jobs"]
        assert [j["job"] for j in packed_jobs] == ["alltoall:4:4096", "allreduce:4:4096"]
        assert packed_jobs[1]["arrival_ms"] == pytest.approx(1e-3)
        assert all(j["slowdown"] is not None for j in packed_jobs)

    def test_cli_cotenant_goal_file(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.goal import write_goal_file

        path = tmp_path / "job.goal"
        write_goal_file(_ring(4, 4096, "filejob"), str(path))
        rc = main(["cotenant", str(path), "--backend", "lgs", "--no-baseline"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        jobs = payload["strategies"]["packed"]["jobs"]
        assert len(jobs) == 1 and jobs[0]["slowdown"] is None

    def test_cli_cotenant_rejects_bad_spec(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["cotenant", "bogus:4:4096"])
