"""Tests for rank remapping and the one multi-job merge (disjoint and fused)."""
import pytest

from repro.goal import (
    GoalBuilder,
    concatenate_schedules,
    delay_schedule,
    encode_goal,
    remap_ranks,
    validate_schedule,
)
from repro.goal.merge import STREAM_STRIDE, TAG_STRIDE
from repro.scheduler import simulate


def _pingpong(name="pp", size=1024):
    b = GoalBuilder(2, name=name)
    s = b.rank(0).send(size, dst=1, tag=1)
    b.rank(0).recv(size, src=1, tag=2, requires=[s])
    r = b.rank(1).recv(size, src=0, tag=1)
    b.rank(1).send(size, dst=0, tag=2, requires=[r])
    return b.build()


class TestRemapRanks:
    def test_remap_moves_ops_and_peers(self):
        sched = _pingpong()
        remapped = remap_ranks(sched, {0: 3, 1: 1}, num_ranks=4)
        assert len(remapped.ranks[3]) == 2
        assert len(remapped.ranks[0]) == 0
        assert remapped.ranks[3].ops[0].peer == 1
        validate_schedule(remapped)

    def test_remap_infers_num_ranks(self):
        remapped = remap_ranks(_pingpong(), {0: 5, 1: 2})
        assert remapped.num_ranks == 6

    def test_remap_requires_full_mapping(self):
        with pytest.raises(ValueError):
            remap_ranks(_pingpong(), {0: 1})

    def test_remap_requires_injective_mapping(self):
        with pytest.raises(ValueError):
            remap_ranks(_pingpong(), {0: 1, 1: 1})

    def test_remap_too_small_num_ranks(self):
        with pytest.raises(ValueError):
            remap_ranks(_pingpong(), {0: 0, 1: 5}, num_ranks=3)

    def test_remapped_schedule_still_simulates(self):
        remapped = remap_ranks(_pingpong(), {0: 2, 1: 0}, num_ranks=3)
        result = simulate(remapped, backend="lgs")
        assert result.ops_completed == remapped.num_ops()


class TestConcatenate:
    def test_default_packing(self):
        merged = concatenate_schedules([_pingpong("a"), _pingpong("b")])
        assert merged.num_ranks == 4
        assert merged.num_ops() == 8
        validate_schedule(merged)

    def test_explicit_placements(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 2}, {0: 1, 1: 3}],
        )
        assert len(merged.ranks[2]) == 2
        validate_schedule(merged)

    def test_overlapping_placements_fuse(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 1}, {0: 1, 1: 2}],
        )
        # node 1 hosts a's rank 1 and b's rank 0; only then are streams moved
        assert merged.num_ranks == 3
        assert [len(r) for r in merged.ranks] == [2, 4, 2]
        assert merged.ranks[1].compute_streams() == [0, 64]
        assert merged.ranks[2].compute_streams() == [64]
        validate_schedule(merged)
        result = simulate(merged, backend="lgs")
        assert result.ops_completed == merged.num_ops()

    def test_tags_kept_disjoint_across_jobs(self):
        merged = concatenate_schedules([_pingpong("a"), _pingpong("b")])
        tags_job0 = {op.tag for op in merged.ranks[0].ops if not op.is_calc}
        tags_job1 = {op.tag for op in merged.ranks[2].ops if not op.is_calc}
        assert tags_job0.isdisjoint(tags_job1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            concatenate_schedules([])

    def test_merged_simulates_to_completion(self):
        merged = concatenate_schedules([_pingpong("a"), _pingpong("b"), _pingpong("c")])
        result = simulate(merged, backend="lgs")
        assert result.ops_completed == merged.num_ops()


class TestMultiTenant:
    """Jobs sharing nodes fuse onto them (the overlapping case of the one merge)."""

    def test_shared_nodes_merge(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 1}, {0: 0, 1: 1}],
        )
        assert merged.num_ranks == 2
        assert merged.num_ops() == 8
        validate_schedule(merged)

    def test_tenant_streams_are_disjoint(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 1}, {0: 0, 1: 1}],
        )
        assert merged.ranks[0].compute_streams() == [0, STREAM_STRIDE]

    def test_tenant_dags_stay_independent(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 1}, {0: 0, 1: 1}],
        )
        # the second tenant's first op must have no dependency on the first tenant
        rank0 = merged.ranks[0]
        second_tenant_first = 2  # two ops per tenant per rank, appended in order
        assert rank0.preds[second_tenant_first] == []

    def test_shared_merge_simulates(self):
        merged = concatenate_schedules(
            [_pingpong("a"), _pingpong("b")],
            placements=[{0: 0, 1: 1}, {0: 1, 1: 0}],
        )
        result = simulate(merged, backend="lgs")
        assert result.ops_completed == merged.num_ops()

    def test_stream_stride_too_small_rejected(self):
        b = GoalBuilder(2, name="hi-stream")
        b.rank(0).send(8, dst=1, tag=1, cpu=70)
        b.rank(1).recv(8, src=0, tag=1, cpu=70)
        with pytest.raises(ValueError, match="'hi-stream' uses compute stream 70 >= STREAM_STRIDE 64"):
            concatenate_schedules(
                [_pingpong("a"), b.build()],
                placements=[{0: 0, 1: 1}, {0: 0, 1: 1}],
            )

    def test_placement_must_cover_all_ranks(self):
        with pytest.raises(ValueError):
            concatenate_schedules([_pingpong()], placements=[{0: 0}])


class TestErrorPaths:
    """Error paths of the merge."""

    def test_rank_collision_within_one_job(self):
        # one job mapping two of its own ranks onto the same node
        with pytest.raises(ValueError, match="'pp' puts ranks 0 and 1 on node 3"):
            concatenate_schedules([_pingpong()], placements=[{0: 3, 1: 3}])

    def test_empty_schedule_list_rejected_everywhere(self):
        with pytest.raises(ValueError, match="at least one"):
            concatenate_schedules([])

    def test_mismatched_placement_count(self):
        with pytest.raises(ValueError, match="one placement per schedule"):
            concatenate_schedules(
                [_pingpong("a"), _pingpong("b")], placements=[{0: 0, 1: 1}]
            )

    def test_placement_missing_a_rank(self):
        with pytest.raises(ValueError, match="missing rank 1"):
            concatenate_schedules([_pingpong("a")], placements=[{0: 0}])

    def test_num_ranks_too_small_for_placement(self):
        with pytest.raises(ValueError, match="'a' puts rank 1 on node 5, outside the 3 nodes"):
            concatenate_schedules(
                [_pingpong("a")], placements=[{0: 0, 1: 5}], num_ranks=3
            )

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="'a' puts rank 0 on node -1"):
            concatenate_schedules([_pingpong("a")], placements=[{0: -1, 1: 0}])


def _delayed(schedules, arrivals):
    return [delay_schedule(s, a) for s, a in zip(schedules, arrivals)]


class TestArrivals:
    def test_arrival_prepends_delay_roots(self):
        merged = concatenate_schedules(_delayed([_pingpong("a"), _pingpong("b")], [0, 700]))
        # job a untouched (arrival 0), job b's ranks gated by a calc 700 root
        assert len(merged.ranks[0]) == 2
        assert len(merged.ranks[2]) == 3
        assert merged.ranks[2].ops[0].is_calc and merged.ranks[2].ops[0].size == 700
        validate_schedule(merged)

    def test_delayed_job_finishes_later(self):
        base = simulate(concatenate_schedules([_pingpong("a"), _pingpong("b")]), backend="lgs")
        delayed = simulate(
            concatenate_schedules(_delayed([_pingpong("a"), _pingpong("b")], [0, 4321])),
            backend="lgs",
        )
        assert delayed.finish_time_ns == base.finish_time_ns + 4321

    def test_shared_nodes_accept_arrivals(self):
        merged = concatenate_schedules(
            _delayed([_pingpong("a"), _pingpong("b")], [0, 250]),
            placements=[{0: 0, 1: 1}, {0: 0, 1: 1}],
        )
        result = simulate(merged, backend="lgs")
        assert result.ops_completed == merged.num_ops()


class TestMergeDeterminism:
    """Multi-job merging is a pure function of its inputs, in job order."""

    def _jobs(self):
        return [_pingpong("a", size=512), _pingpong("b", size=1024), _pingpong("c", size=2048)]

    def test_same_inputs_same_bytes(self):
        one = concatenate_schedules(_delayed(self._jobs(), [0, 10, 20]))
        two = concatenate_schedules(_delayed(self._jobs(), [0, 10, 20]))
        assert encode_goal(one) == encode_goal(two)

    def test_shared_merge_same_inputs_same_bytes(self):
        placements = [{0: 0, 1: 1}] * 3
        one = concatenate_schedules(self._jobs(), placements=placements)
        two = concatenate_schedules(self._jobs(), placements=placements)
        assert encode_goal(one) == encode_goal(two)

    def test_job_order_defines_tag_windows(self):
        merged = concatenate_schedules(self._jobs())
        for job_idx, base_rank in enumerate((0, 2, 4)):
            tags = {op.tag for op in merged.ranks[base_rank].ops if not op.is_calc}
            assert tags == {job_idx * TAG_STRIDE + 1, job_idx * TAG_STRIDE + 2}

    @staticmethod
    def _late_mib(tag):
        b = GoalBuilder(2, name="late-mib")
        b.rank(0).send(1 << 20, dst=1, tag=tag, requires=[b.rank(0).calc(100_000)])
        b.rank(1).recv(1 << 20, src=0, tag=tag)
        return b.build()

    @staticmethod
    def _small():
        b = GoalBuilder(2, name="small")
        b.rank(0).send(64, dst=1, tag=0)
        b.rank(1).recv(64, src=0, tag=0)
        return b.build()

    @pytest.mark.parametrize("backend", ["lgs", "htsim"])
    def test_fused_jobs_never_match_each_others_messages(self, backend):
        # Tag 2**20 was the small job's tag 0 moved into a 2**20-wide window:
        # its 64 B message completed the late job's 1 MiB receive (on LGS it
        # finished at 146 043 ns instead of 4 103 ns).
        merged = concatenate_schedules(
            [self._late_mib(1 << 20), self._small()], placements=[{0: 0, 1: 1}] * 2
        )
        fused = simulate(merged, backend=backend, op_groups=[[0, 0, 1], [0, 1]])
        alone = [simulate(job, backend=backend) for job in (self._late_mib(1 << 20), self._small())]
        assert {job: g.finish_ns for job, g in fused.groups.items()} == {
            job: run.finish_time_ns for job, run in enumerate(alone)
        }

    def test_tag_past_the_job_window_is_refused(self):
        with pytest.raises(ValueError, match="'late-mib' uses tag 4294967296 >= TAG_STRIDE"):
            concatenate_schedules(
                [self._late_mib(TAG_STRIDE), self._small()], placements=[{0: 0, 1: 1}] * 2
            )
        with pytest.raises(ValueError, match="'late-mib' uses tag 4294967296 >= TAG_STRIDE"):
            concatenate_schedules([self._late_mib(TAG_STRIDE)])
        # a relabel is not a job: its tags are not checked
        assert remap_ranks(self._late_mib(TAG_STRIDE), {0: 1, 1: 0}).ranks[1].ops[1].tag == TAG_STRIDE

    def test_merged_simulation_is_deterministic(self):
        merged = concatenate_schedules(_delayed(self._jobs(), [0, 5, 10]))
        a = simulate(merged, backend="lgs")
        b = simulate(merged, backend="lgs")
        assert a.digest() == b.digest()
        assert a.message_records == b.message_records

    def test_reordering_jobs_reorders_node_blocks(self):
        fwd = concatenate_schedules([_pingpong("a", size=512), _pingpong("b", size=1024)])
        rev = concatenate_schedules([_pingpong("b", size=1024), _pingpong("a", size=512)])
        # default packing is positional: job 0 always occupies the first block
        assert fwd.ranks[0].ops[0].size == 512
        assert rev.ranks[0].ops[0].size == 1024
