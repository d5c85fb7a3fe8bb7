"""Exact unit tests for the serving percentile/SLO estimator.

Nearest-rank semantics are pinned against hand-computed values (rank
``ceil(p/100 * n)``, 1-indexed, every output an actual observation), the
empty/single-sample edge cases are fixed, and the goodput accounting is
shown to exclude deadline-missed requests while throughput keeps counting
them.  The simulation side is faked with hand-built plans and results so
every expected number is computable on paper.
"""
import pytest

from repro.apps.inference import (
    DecodeStep,
    InferencePlan,
    Request,
    ServingClusterConfig,
)
from repro.goal.schedule import GoalSchedule
from repro.network.backend import GroupStats
from repro.measurement.serving import (
    SloSpec,
    compute_serving_metrics,
    percentile_nearest_rank,
)


class TestPercentileNearestRank:
    def test_hand_computed_small_sample(self):
        samples = [15, 20, 35, 40, 50]
        # ranks: p30 -> ceil(1.5)=2nd, p40 -> 2nd, p50 -> ceil(2.5)=3rd
        assert percentile_nearest_rank(samples, 30) == 20
        assert percentile_nearest_rank(samples, 40) == 20
        assert percentile_nearest_rank(samples, 50) == 35
        assert percentile_nearest_rank(samples, 100) == 50

    def test_p99_and_p999_on_hundred_samples(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile_nearest_rank(samples, 50) == 50
        assert percentile_nearest_rank(samples, 99) == 99
        # ceil(99.9) = 100 -> the maximum
        assert percentile_nearest_rank(samples, 99.9) == 100

    def test_unsorted_input_is_sorted_internally(self):
        assert percentile_nearest_rank([9, 1, 5], 50) == 5

    def test_single_sample_is_every_percentile(self):
        for pct in (0.1, 50, 99, 99.9, 100):
            assert percentile_nearest_rank([42], pct) == 42

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero samples"):
            percentile_nearest_rank([], 50)

    @pytest.mark.parametrize("pct", [0.0, -1.0, 100.1])
    def test_out_of_range_percentile_raises(self, pct):
        with pytest.raises(ValueError, match="percentile"):
            percentile_nearest_rank([1, 2, 3], pct)


def _fake_plan(requests, finish_by_group, finish_time_ns=None):
    """A plan + result pair with hand-chosen per-request group finishes."""
    cluster = ServingClusterConfig()
    plan = InferencePlan(
        schedule=GoalSchedule(cluster.num_ranks, name="fake"),
        op_groups=[],
        requests=list(requests),
        cluster=cluster,
        steps={3: [DecodeStep(rank=3, index=0, duration_ns=1, joins=(), members=((0, 0),))]},
        process="poisson",
        rate_rps=100.0,
        seed=0,
    )

    horizon = (
        finish_time_ns
        if finish_time_ns is not None
        else max(finish_by_group.values(), default=0)
    )

    class _FakeResult:
        pass

    result = _FakeResult()
    result.groups = {g: GroupStats(g, finish_ns=t) for g, t in finish_by_group.items()}
    result.finish_time_ns = horizon
    return plan, result


def _request(rid, arrival_ns=0, decode_tokens=4):
    return Request(
        id=rid,
        tenant="t",
        arrival_ns=arrival_ns,
        prompt_tokens=8,
        decode_tokens=decode_tokens,
        frontend_rank=0,
        prefill_rank=1,
        decode_rank=3,
    )


class TestComputeServingMetrics:
    def test_ttft_and_tpot_hand_computed(self):
        req = _request(0, arrival_ns=1_000, decode_tokens=5)
        # first token at 11_000, last at 31_000 -> ttft 10_000,
        # tpot (31_000 - 11_000) / 4 = 5_000
        plan, result = _fake_plan([req], {0: 11_000, 1: 31_000})
        m = compute_serving_metrics(plan, result, slo=SloSpec(ttft_ns=None))
        (outcome,) = m.outcomes
        assert outcome.ttft_ns == 10_000
        assert outcome.tpot_ns == 5_000.0
        assert m.ttft_percentiles_ns == {"p50": 10_000, "p99": 10_000, "p999": 10_000}

    def test_single_token_request_falls_back_to_first_token(self):
        req = _request(0, arrival_ns=0, decode_tokens=1)
        plan, result = _fake_plan([req], {0: 7_000})  # no completion group
        m = compute_serving_metrics(plan, result, slo=SloSpec(ttft_ns=None))
        (outcome,) = m.outcomes
        assert outcome.completion_ns == 7_000
        assert outcome.tpot_ns == 0.0

    def test_missing_group_is_actionable(self):
        req = _request(0)
        plan, result = _fake_plan([req], {})
        with pytest.raises(ValueError, match="op_groups=plan.op_groups"):
            compute_serving_metrics(plan, result)

    def test_goodput_excludes_deadline_missed_requests(self):
        # 4 requests finishing their first token 1..4 ms after arrival;
        # a 2.5 ms TTFT deadline passes exactly 2 of them
        requests = [_request(i, arrival_ns=0, decode_tokens=1) for i in range(4)]
        finishes = {2 * i: (i + 1) * 1_000_000 for i in range(4)}
        plan, result = _fake_plan(requests, finishes, finish_time_ns=1_000_000_000)
        m = compute_serving_metrics(plan, result, slo=SloSpec(ttft_ns=2_500_000))
        assert m.good_requests == 2
        assert [o.slo_met for o in m.outcomes] == [True, True, False, False]
        # horizon is exactly 1 simulated second
        assert m.throughput_rps == pytest.approx(4.0)
        assert m.goodput_rps == pytest.approx(2.0)

    def test_tpot_deadline_also_gates_goodput(self):
        req_fast = _request(0, decode_tokens=3)
        req_slow = _request(1, decode_tokens=3)
        finishes = {
            0: 1_000, 1: 5_000,      # tpot (5000-1000)/2 = 2_000
            2: 1_000, 3: 21_000,     # tpot 10_000
        }
        plan, result = _fake_plan([req_fast, req_slow], finishes, finish_time_ns=10**9)
        m = compute_serving_metrics(
            plan, result, slo=SloSpec(ttft_ns=None, tpot_ns=5_000)
        )
        assert [o.slo_met for o in m.outcomes] == [True, False]
        assert m.good_requests == 1

    def test_empty_plan_yields_no_percentiles(self):
        plan, result = _fake_plan([], {}, finish_time_ns=0)
        m = compute_serving_metrics(plan, result)
        assert m.num_requests == 0
        assert m.ttft_percentiles_ns == {}
        assert m.goodput_rps == 0.0
        assert m.throughput_rps == 0.0

    def test_slo_spec_validation(self):
        with pytest.raises(ValueError, match="ttft_ns"):
            SloSpec(ttft_ns=0)
        with pytest.raises(ValueError, match="tpot_ns"):
            SloSpec(tpot_ns=-5)
