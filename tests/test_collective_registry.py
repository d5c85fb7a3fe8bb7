"""Registry, property and autotuner tests for the collective algorithm engine.

The property grid required by the engine's contract: for every registered
algorithm x rank counts {2..9, 16, 17}, the generated GOAL schedule
validates (acyclic, matched messages), conserves bytes per rank (up to
chunk-split rounding), and replays bit-identically on both backends.
"""
import pytest

from repro.collectives import (
    COLLECTIVE_ALGORITHMS,
    CostModel,
    algorithm_names,
    build_collective_schedule,
    collective_names,
    contiguous_groups,
    get_algorithm,
    groups_from_topology,
    select_algorithm,
)
from repro.collectives.context import CollectiveContext, validate_groups
from repro.collectives.hierarchical import grid_shape
from repro.goal import GoalBuilder, encode_goal
from repro.goal.validate import validate_schedule
from repro.network.config import LogGOPSParams, SimulationConfig
from repro.network.topology import build_topology
from repro.scheduler import simulate

RANK_COUNTS = [2, 3, 4, 5, 6, 7, 8, 9, 16, 17]
#: collectives whose algorithms are symmetric: every rank sends exactly what
#: it receives (up to chunk-split rounding)
SYMMETRIC = {"allreduce", "allgather", "barrier", "alltoall"}

ALL_ALGORITHMS = [
    (collective, name)
    for collective in collective_names()
    for name in algorithm_names(collective)
]


def _schedule(collective, name, n, size=2048):
    return build_collective_schedule(
        collective, name, n, size, groups=contiguous_groups(n, 4)
    )


class TestRegistry:
    def test_expected_contents(self):
        assert set(collective_names()) == {
            "allreduce", "allgather", "reduce_scatter", "bcast", "barrier", "alltoall",
        }
        assert algorithm_names("allreduce") == [
            "ring", "recursive_doubling", "reduce_bcast",
            "recursive_halving_doubling", "bucket", "hier_rs", "hier_leader",
        ]

    def test_get_algorithm_errors_list_candidates(self):
        with pytest.raises(ValueError, match="registered: ring"):
            get_algorithm("allreduce", "nope")
        with pytest.raises(ValueError, match="unknown collective"):
            get_algorithm("allscatter", "ring")

    def test_every_algorithm_has_docs_metadata(self):
        for collective, name in ALL_ALGORITHMS:
            alg = get_algorithm(collective, name)
            assert alg.description
            assert alg.cost_formula
            assert alg.collective == collective

    def test_hierarchical_flag_matches_group_requirement(self):
        for collective, name in ALL_ALGORITHMS:
            alg = get_algorithm(collective, name)
            builder = GoalBuilder(4)
            ctx = CollectiveContext(builder, [0, 1, 2, 3])  # no groups
            if alg.hierarchical:
                with pytest.raises(ValueError, match="locality groups"):
                    alg.emit(ctx, 4096, None)
            else:
                alg.emit(ctx, 4096, None)
                validate_schedule(builder.build())


class TestGroupHelpers:
    def test_contiguous_groups(self):
        assert contiguous_groups(7, 3) == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError):
            contiguous_groups(0, 3)
        with pytest.raises(ValueError):
            contiguous_groups(4, 0)

    def test_validate_groups_rejects_bad_partitions(self):
        validate_groups([[0, 1], [2]], 3)
        with pytest.raises(ValueError, match="duplicate"):
            validate_groups([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError, match="partition"):
            validate_groups([[0, 1]], 3)
        with pytest.raises(ValueError, match="non-empty"):
            validate_groups([[0, 1, 2], []], 3)

    def test_groups_from_topology_fat_tree(self):
        topo = build_topology(SimulationConfig(topology="fat_tree", nodes_per_tor=4), 8)
        assert groups_from_topology(range(8), topo) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_groups_from_topology_respects_placement(self):
        topo = build_topology(SimulationConfig(topology="fat_tree", nodes_per_tor=4), 8)
        placement = {0: 0, 1: 4}  # comm ranks on different ToRs
        assert groups_from_topology([0, 1], topo, placement) == [[0], [1]]
        with pytest.raises(ValueError, match="does not contain"):
            groups_from_topology([0], topo, {0: 99})

    def test_grid_shape(self):
        assert grid_shape(32) == (4, 8)
        assert grid_shape(16) == (4, 4)
        assert grid_shape(17) == (1, 17)  # prime: bucket degenerates to ring
        with pytest.raises(ValueError):
            grid_shape(0)


class TestScheduleProperties:
    """The issue's property grid: every algorithm x rank counts {2..9, 16, 17}."""

    @pytest.mark.parametrize("collective,name", ALL_ALGORITHMS)
    @pytest.mark.parametrize("n", RANK_COUNTS)
    def test_validates_and_conserves_bytes(self, collective, name, n):
        sched = _schedule(collective, name, n)
        # validates: acyclic dependencies, in-range peers, matched messages
        validate_schedule(sched)
        # global conservation
        sent = sum(r.total_bytes_sent() for r in sched.ranks)
        received = sum(r.total_bytes_received() for r in sched.ranks)
        assert sent == received
        if collective in SYMMETRIC:
            # per-rank conservation, up to chunk-split rounding (uneven
            # S/N splits shift at most one byte per ring step)
            for rank in sched.ranks:
                delta = abs(rank.total_bytes_sent() - rank.total_bytes_received())
                assert delta <= 8 * n + 64, (collective, name, n, rank.rank, delta)

    @pytest.mark.parametrize("collective,name", ALL_ALGORITHMS)
    @pytest.mark.parametrize("n", RANK_COUNTS)
    def test_replays_bit_identically_on_lgs(self, collective, name, n):
        sched = _schedule(collective, name, n)
        results = [simulate(sched, backend="lgs") for _ in range(2)]
        assert results[0].ops_completed == sched.num_ops()
        assert results[0].finish_time_ns == results[1].finish_time_ns
        assert results[0].stats.messages_delivered == results[1].stats.messages_delivered

    @pytest.mark.parametrize("collective,name", ALL_ALGORITHMS)
    @pytest.mark.parametrize("n", RANK_COUNTS)
    def test_replays_bit_identically_on_packet_backend(self, collective, name, n):
        sched = _schedule(collective, name, n)
        results = [simulate(sched, backend="htsim") for _ in range(2)]
        assert results[0].ops_completed == sched.num_ops()
        assert results[0].finish_time_ns == results[1].finish_time_ns
        assert results[0].stats.packets_dropped == results[1].stats.packets_dropped

    def test_hierarchical_uneven_groups_complete(self):
        # groups of unequal width exercise the missing-slot truncation path
        for name in ("hier_rs", "hier_leader"):
            sched = build_collective_schedule(
                "allreduce", name, 7, 4096, groups=[[0, 1, 2], [3, 4], [5], [6]]
            )
            validate_schedule(sched)
            assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()

    def test_root_is_rejected_for_unrooted_collectives(self):
        with pytest.raises(ValueError, match="allreduce takes no root; got root=3"):
            build_collective_schedule("allreduce", "ring", 8, 1024, root=3)
        rooted = build_collective_schedule("bcast", "binomial", 8, 1024, root=3)
        assert encode_goal(rooted) != encode_goal(
            build_collective_schedule("bcast", "binomial", 8, 1024)
        )

    @pytest.mark.parametrize("collective, algorithm", [("allreduce", "ring"), ("alltoall", "auto")])
    def test_negative_size_is_rejected(self, collective, algorithm):
        # used to emit 1-byte messages: the chunk clamp swallowed the sign
        with pytest.raises(ValueError, match="size must be non-negative, got -8"):
            build_collective_schedule(collective, algorithm, 4, -8)

    def test_single_group_degenerates_cleanly(self):
        sched = build_collective_schedule(
            "allreduce", "hier_rs", 4, 4096, groups=[[0, 1, 2, 3]]
        )
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()


class TestAutotuner:
    def test_small_messages_pick_low_latency(self):
        choice = select_algorithm("allreduce", 256, 32, params=LogGOPSParams())
        assert choice.name == "recursive_doubling"
        assert choice.costs["ring"] > choice.cost_ns

    def test_large_flat_messages_pick_rabenseifner(self):
        choice = select_algorithm("allreduce", 64 << 20, 32, params=LogGOPSParams())
        assert choice.name == "recursive_halving_doubling"

    def test_hierarchical_skipped_without_groups(self):
        choice = select_algorithm("allreduce", 1 << 20, 32, params=LogGOPSParams())
        assert choice.costs["hier_rs"] == float("inf")
        assert choice.costs["hier_leader"] == float("inf")

    def test_oversubscribed_fat_tree_prefers_two_level(self):
        config = SimulationConfig(topology="fat_tree", oversubscription=4.0)
        topo = build_topology(config, 32)
        choice = select_algorithm(
            "allreduce", 1 << 20, 32, params=LogGOPSParams(), topology=topo
        )
        assert choice.name in ("bucket", "hier_rs", "hier_leader")
        assert choice.costs["recursive_halving_doubling"] > choice.cost_ns

    def test_topology_model_carries_latencies_and_uplinks(self):
        config = SimulationConfig(topology="fat_tree", oversubscription=4.0)
        topo = build_topology(config, 32)
        model = CostModel.from_loggops(LogGOPSParams(), topology=topo)
        assert model.L_intra is not None and model.L_inter is not None
        assert model.L_intra < model.L_inter
        assert model.uplinks_per_group == pytest.approx(4.0)
        assert model.inter_factor(16) == pytest.approx(4.0)
        assert model.inter_factor(2) == 1.0

    def test_costs_are_reported_for_every_candidate(self):
        choice = select_algorithm("allreduce", 4096, 8, params=LogGOPSParams())
        assert set(choice.costs) == set(algorithm_names("allreduce"))
        assert choice.cost_ns == min(choice.costs.values())

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown collective"):
            select_algorithm("allscatter", 4096, 8)
        with pytest.raises(ValueError, match="num_ranks"):
            select_algorithm("allreduce", 4096, 0)
        with pytest.raises(ValueError, match="size"):
            select_algorithm("allreduce", -1, 8)

    def test_build_with_auto_resolves_through_autotuner(self):
        sched = build_collective_schedule("allreduce", "auto", 8, 256)
        validate_schedule(sched)
        assert simulate(sched, backend="lgs").ops_completed == sched.num_ops()
