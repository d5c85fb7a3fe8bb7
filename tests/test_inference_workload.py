"""Plan invariants and end-to-end runs of the inference-serving generator.

The continuous-batching engine and the GOAL emission are deterministic
plans; these tests pin their structural invariants — every request produces
exactly its token count, batches respect the occupancy cap, joins happen
once, op groups line up with the emitted ops — and run a small serving cell
end-to-end on both backends through the facade, checking that per-request
group finish times behave like latencies (first token after arrival,
completion after first token, everything inside the makespan).
"""
import pytest

from repro.apps.inference import (
    DEFAULT_TENANTS,
    ServingClusterConfig,
    TenantSpec,
    build_inference_workload,
)
from repro.core import Atlahs
from repro.goal.validate import validate_schedule
from repro.measurement.serving import compute_serving_metrics
from repro.network import SimulationConfig
from repro.scheduler import simulate


@pytest.fixture(scope="module")
def plan():
    return build_inference_workload(num_requests=32, rate_rps=500.0, seed=9)


class TestPlanInvariants:
    def test_schedule_validates(self, plan):
        validate_schedule(plan.schedule)

    def test_rank_count_matches_cluster(self, plan):
        assert plan.schedule.num_ranks == plan.cluster.num_ranks

    def test_op_groups_shape_matches_schedule(self, plan):
        assert len(plan.op_groups) == plan.schedule.num_ranks
        for rank, groups in zip(plan.schedule.ranks, plan.op_groups):
            assert len(groups) == len(rank.ops)

    def test_request_groups_appear_exactly_once(self, plan):
        flat = [g for groups in plan.op_groups for g in groups if g >= 0]
        for req in plan.requests:
            assert flat.count(req.first_token_group) == 1
            expected = 0 if req.decode_tokens == 1 else 1
            assert flat.count(req.completion_group) == expected

    def test_every_request_gets_all_its_tokens(self, plan):
        produced = {req.id: 0 for req in plan.requests}
        for timeline in plan.steps.values():
            for step in timeline:
                for rid, _token in step.members:
                    produced[rid] += 1
        for req in plan.requests:
            assert produced[req.id] == req.decode_tokens

    def test_token_indices_are_sequential_per_request(self, plan):
        seen = {req.id: [] for req in plan.requests}
        for timeline in plan.steps.values():
            for step in timeline:
                for rid, token in step.members:
                    seen[rid].append(token)
        for req in plan.requests:
            assert seen[req.id] == list(range(req.decode_tokens))

    def test_batches_respect_occupancy_cap(self, plan):
        for timeline in plan.steps.values():
            for step in timeline:
                assert 0 < step.batch_size <= plan.cluster.max_batch

    def test_each_request_joins_exactly_once_on_its_rank(self, plan):
        joins = {}
        for rank, timeline in plan.steps.items():
            for step in timeline:
                for rid in step.joins:
                    assert rid not in joins
                    joins[rid] = rank
        for req in plan.requests:
            assert joins[req.id] == req.decode_rank

    def test_batch_occupancy_stats(self, plan):
        stats = plan.batch_occupancy()
        assert stats["steps"] > 0
        assert 1.0 <= stats["mean_batch"] <= stats["max_batch"] <= plan.cluster.max_batch

    def test_arrivals_sorted_and_ids_dense(self, plan):
        arrivals = [r.arrival_ns for r in plan.requests]
        assert arrivals == sorted(arrivals)
        assert [r.id for r in plan.requests] == list(range(len(plan.requests)))


class TestDeterminism:
    def test_equal_seeds_identical_plans(self):
        a = build_inference_workload(num_requests=16, rate_rps=400.0, seed=4)
        b = build_inference_workload(num_requests=16, rate_rps=400.0, seed=4)
        assert [r.arrival_ns for r in a.requests] == [r.arrival_ns for r in b.requests]
        assert [r.prompt_tokens for r in a.requests] == [r.prompt_tokens for r in b.requests]
        assert a.op_groups == b.op_groups
        assert a.steps == b.steps

    def test_different_seeds_differ(self):
        a = build_inference_workload(num_requests=16, rate_rps=400.0, seed=4)
        b = build_inference_workload(num_requests=16, rate_rps=400.0, seed=5)
        assert [r.arrival_ns for r in a.requests] != [r.arrival_ns for r in b.requests]


class TestTenantMixes:
    def test_weights_shape_the_mix(self):
        tenants = (
            TenantSpec("heavy", weight=9.0, prompt_tokens=64, decode_tokens=4),
            TenantSpec("light", weight=1.0, prompt_tokens=64, decode_tokens=4),
        )
        plan = build_inference_workload(
            num_requests=200, rate_rps=300.0, tenants=tenants, seed=2
        )
        heavy = sum(1 for r in plan.requests if r.tenant == "heavy")
        assert heavy > 150  # ~180 expected at 9:1

    def test_duplicate_tenant_names_rejected(self):
        tenants = (TenantSpec("a"), TenantSpec("a", weight=2.0))
        with pytest.raises(ValueError, match="duplicate tenant"):
            build_inference_workload(num_requests=4, tenants=tenants)

    def test_tenant_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=0.0)
        with pytest.raises(ValueError, match="positive"):
            TenantSpec("t", prompt_tokens=0)

    def test_nominal_capacity_positive_and_prefill_bound(self):
        cluster = ServingClusterConfig()
        cap = cluster.nominal_capacity_rps(DEFAULT_TENANTS)
        prefill_rps = cluster.prefill_ranks * 1e9 / (
            DEFAULT_TENANTS[0].prompt_tokens * cluster.prefill_ns_per_token
        )
        assert 0 < cap <= prefill_rps


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_group_finish_times_behave_like_latencies(self, plan, backend):
        config = SimulationConfig(topology="fat_tree", nodes_per_tor=2, seed=1)
        result = simulate(
            plan.schedule, backend=backend, config=config, op_groups=plan.op_groups
        )
        groups = result.groups
        for req in plan.requests:
            first = groups[req.first_token_group].finish_ns
            completion = groups[req.completion_group].finish_ns if req.completion_group in groups else first
            assert first > req.arrival_ns
            assert completion >= first
            assert result.finish_time_ns >= completion

    def test_facade_returns_plan_and_metrics(self):
        out = Atlahs(SimulationConfig(nodes_per_tor=2)).run_inference(
            num_requests=8, rate_rps=300.0, seed=1
        )
        metrics = out.extras["metrics"]
        assert metrics.num_requests == 8
        assert metrics.goodput_rps > 0
        assert set(metrics.ttft_percentiles_ns) == {"p50", "p99", "p999"}
        assert out.goal_bytes > 0

    def test_metrics_match_direct_computation(self, plan):
        config = SimulationConfig(topology="fat_tree", nodes_per_tor=2, seed=1)
        result = simulate(
            plan.schedule, backend="lgs", config=config, op_groups=plan.op_groups
        )
        m = compute_serving_metrics(plan, result)
        ttfts = sorted(o.ttft_ns for o in m.outcomes)
        assert m.ttft_percentiles_ns["p50"] == ttfts[15]  # ceil(0.5 * 32) = 16th
        assert m.ttft_percentiles_ns["p999"] == ttfts[-1]
