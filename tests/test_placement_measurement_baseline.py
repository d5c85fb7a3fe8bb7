"""Tests for job placement, the measurement harness, and the AstraSim baseline."""
import pytest

from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.baselines.astrasim import AstraSimBaseline, AstraSimUnsupportedError, nsys_to_chakra
from repro.baselines.astrasim.chakra import COMM_COLL_NODE, COMP_NODE, ChakraTrace
from repro.cluster import ClusterJob, build_cotenant_schedule, run_cotenant
from repro.goal import GoalBuilder, encode_goal, validate_schedule
from repro.measurement import (
    measure_reference_runtime,
    non_overlapped_compute_fraction,
    prediction_error,
)
from repro.network import SimulationConfig
from repro.placement import JobRequest, place_jobs
from repro.schedgen import incast
from repro.scheduler import simulate


def _job(n=4, size=1 << 16, name="job"):
    b = GoalBuilder(n, name=name)
    for r in range(n):
        dst = (r + 1) % n
        b.rank(r).send(size, dst=dst, tag=r)
        b.rank(r).recv(size, src=(r - 1) % n, tag=(r - 1) % n)
    return b.build()


class TestPlacement:
    def test_packed_is_contiguous(self):
        jobs = [JobRequest(_job(4, name="a")), JobRequest(_job(4, name="b"))]
        placement = place_jobs(jobs, 16, strategy="packed")
        assert placement.nodes_of_job(0) == [0, 1, 2, 3]
        assert placement.nodes_of_job(1) == [4, 5, 6, 7]

    def test_random_uses_seed_and_disjoint_nodes(self):
        jobs = [JobRequest(_job(4)), JobRequest(_job(4))]
        p1 = place_jobs(jobs, 16, strategy="random", seed=1)
        p2 = place_jobs(jobs, 16, strategy="random", seed=1)
        assert p1.mappings == p2.mappings
        all_nodes = p1.nodes_of_job(0) + p1.nodes_of_job(1)
        assert len(set(all_nodes)) == 8

    def test_round_robin_spreads_across_tors(self):
        jobs = [JobRequest(_job(4))]
        placement = place_jobs(jobs, 16, strategy="round_robin", nodes_per_tor=4)
        tors = {node // 4 for node in placement.nodes_of_job(0)}
        assert len(tors) == 4

    def test_strided(self):
        jobs = [JobRequest(_job(4))]
        placement = place_jobs(jobs, 16, strategy="strided", stride=2)
        assert placement.nodes_of_job(0) == [0, 2, 4, 6]

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            place_jobs([JobRequest(_job(8))], 4)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            place_jobs([JobRequest(_job(2))], 4, strategy="tetris")

    def test_merged_schedule_simulates(self):
        jobs = [ClusterJob(_job(4, name="a")), ClusterJob(_job(4, name="b"))]
        merged = build_cotenant_schedule(jobs, 8, strategy="packed").schedule
        validate_schedule(merged)
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4)
        res = simulate(merged, backend="htsim", config=cfg)
        assert res.ops_completed == merged.num_ops()

    def test_locality_packs_whole_groups_on_torus(self):
        from repro.network.topology import TorusTopology

        topo = TorusTopology(16, dims=(2, 2), hosts_per_node=4)
        # two 4-node jobs: each should land on exactly one torus router
        jobs = [JobRequest(_job(4, name="a")), JobRequest(_job(4, name="b"))]
        placement = place_jobs(jobs, 16, strategy="locality", topology=topo)
        for i in range(2):
            routers = {topo.node_of(n) for n in placement.nodes_of_job(i)}
            assert len(routers) == 1
        assert set(placement.nodes_of_job(0)).isdisjoint(placement.nodes_of_job(1))

    def test_locality_prefers_single_group_over_spill(self):
        from repro.network.topology import TorusTopology

        topo = TorusTopology(16, dims=(2, 2), hosts_per_node=4)
        # a 3-node job first, then a 4-node job: the 4-node job must skip the
        # partially filled router and land whole on the next one
        jobs = [JobRequest(_job(3, name="small")), JobRequest(_job(4, name="big"))]
        placement = place_jobs(jobs, 16, strategy="locality", topology=topo)
        big_routers = {topo.node_of(n) for n in placement.nodes_of_job(1)}
        assert len(big_routers) == 1

    def test_locality_spills_over_consecutive_groups(self):
        jobs = [JobRequest(_job(6, name="wide"))]
        placement = place_jobs(jobs, 16, strategy="locality", group_size=4)
        assert placement.nodes_of_job(0) == [0, 1, 2, 3, 4, 5]

    def test_locality_spill_uses_fewest_groups(self):
        # a 3-node job leaves group 0 with one free slot; the following
        # 8-node job must skip it and take two whole groups, not fragment
        # itself across three switches
        jobs = [JobRequest(_job(3, name="small")), JobRequest(_job(8, name="big"))]
        placement = place_jobs(jobs, 16, strategy="locality", group_size=4)
        big_groups = {n // 4 for n in placement.nodes_of_job(1)}
        assert big_groups == {1, 2}

    def test_locality_on_slimfly(self):
        from repro.network.topology import SlimFlyTopology

        topo = SlimFlyTopology(20, q=5, hosts_per_router=2)
        jobs = [JobRequest(_job(2, name="a")), JobRequest(_job(2, name="b"))]
        placement = place_jobs(jobs, 20, strategy="locality", topology=topo)
        for i in range(2):
            routers = {topo.router_of(n) for n in placement.nodes_of_job(i)}
            assert len(routers) == 1

    def test_locality_topology_size_mismatch_rejected(self):
        from repro.network.topology import TorusTopology

        topo = TorusTopology(8, dims=(2, 2), hosts_per_node=2)
        with pytest.raises(ValueError):
            place_jobs([JobRequest(_job(2))], 16, strategy="locality", topology=topo)

    def test_random_placement_not_slower_check(self):
        # random placement on an oversubscribed fabric must not be faster than packed
        jobs = [ClusterJob(_job(8, size=1 << 19, name="a")), ClusterJob(_job(8, size=1 << 19, name="b"))]
        cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4, oversubscription=4.0)
        packed = run_cotenant(jobs, 16, strategy="packed", config=cfg, baseline=False)
        random_p = run_cotenant(jobs, 16, strategy="random", config=cfg, baseline=False, seed=2)
        t_packed = packed.result.finish_time_ns
        t_random = random_p.result.finish_time_ns
        assert t_random >= t_packed * 0.95


class TestMeasurement:
    def test_compute_fraction_bounds(self):
        b = GoalBuilder(1)
        b.rank(0).calc(1000)
        sched = b.build()
        assert non_overlapped_compute_fraction(sched, 2000) == pytest.approx(0.5)
        assert non_overlapped_compute_fraction(sched, 0) == 0.0

    def test_prediction_error_signs(self):
        assert prediction_error(110, 100) == pytest.approx(0.10)
        assert prediction_error(90, 100) == pytest.approx(-0.10)
        with pytest.raises(ValueError):
            prediction_error(1, 0)

    def test_reference_measurement_is_deterministic(self):
        sched = incast(4, 1 << 17)
        cfg = SimulationConfig(topology="single_switch")
        a = measure_reference_runtime(sched, base_config=cfg, trials=2, seed=9)
        b = measure_reference_runtime(sched, base_config=cfg, trials=2, seed=9)
        assert a.runtime_ns == b.runtime_ns
        assert len(a.trial_runtimes_ns) == 2

    def test_reference_measurement_leaves_its_input_unchanged(self):
        b = GoalBuilder(2, name="scaled")
        c = b.rank(0).calc(5000)
        b.rank(0).send(1 << 12, dst=1, tag=1, requires=[c])
        b.rank(1).recv(1 << 12, src=0, tag=1)
        sched = b.build()
        before = encode_goal(sched)
        cfg = SimulationConfig(topology="single_switch")
        measured = measure_reference_runtime(sched, base_config=cfg, trials=3, compute_jitter=0.5, seed=1)
        assert encode_goal(sched) == before
        # the jitter did reach the calcs, on new schedules
        assert len(set(measured.trial_runtimes_ns)) == 3

    def test_lgs_prediction_close_to_reference_for_simple_workload(self):
        sched = incast(4, 1 << 18)
        cfg = SimulationConfig(topology="single_switch")
        measured = measure_reference_runtime(sched, base_config=cfg, trials=2)
        predicted = simulate(sched, backend="lgs").finish_time_ns
        assert abs(prediction_error(predicted, measured.runtime_ns)) < 0.25


class TestAstraSimBaseline:
    def _report(self, pp=1):
        par = ParallelismConfig(tp=1, pp=pp, dp=4 // max(1, pp) if pp > 1 else 4, microbatches=2, global_batch=16)
        return LlmTrainer(llama_7b().scaled(0.05), par, iterations=1).trace()

    def test_chakra_conversion_structure(self):
        chakra = nsys_to_chakra(self._report())
        assert chakra.num_gpus == 4
        types = {n.node_type for g in chakra.graphs for n in g}
        assert COMP_NODE in types and COMM_COLL_NODE in types

    def test_chakra_roundtrip(self):
        chakra = nsys_to_chakra(self._report())
        back = ChakraTrace.from_json(chakra.to_json())
        assert back.num_nodes() == chakra.num_nodes()

    def test_chakra_larger_than_goal(self):
        from repro.schedgen import nccl_trace_to_goal

        report = self._report()
        chakra = nsys_to_chakra(report)
        goal = nccl_trace_to_goal(report, gpus_per_node=1)
        assert chakra.size_bytes() > len(encode_goal(goal))

    def test_dp_trace_simulates(self):
        chakra = nsys_to_chakra(self._report())
        result = AstraSimBaseline().simulate(chakra)
        assert result.finish_time_ns > 0
        assert result.nodes_executed == chakra.num_nodes()

    def test_pp_trace_rejected_with_paper_error(self):
        chakra = nsys_to_chakra(self._report(pp=2))
        with pytest.raises(AstraSimUnsupportedError) as exc:
            AstraSimBaseline().simulate(chakra)
        assert "same address" in str(exc.value)

    def test_collective_duration_scales_with_size(self):
        from repro.baselines.astrasim.chakra import ChakraNode
        from repro.baselines.astrasim.simulator import AstraSimBaseline as B

        sim = B()
        small = ChakraNode(0, "ar", COMM_COLL_NODE, comm_size=1 << 16, comm_type="ALL_REDUCE")
        large = ChakraNode(1, "ar", COMM_COLL_NODE, comm_size=1 << 22, comm_type="ALL_REDUCE")
        assert sim._collective_duration(large, 8) > sim._collective_duration(small, 8)
