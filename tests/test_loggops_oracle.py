"""The LogGOPS engine against its five-heap-event oracle.

The engine posts sends and receives on the event queue's same-instant ready
queue and runs each message through flattened handlers; the oracle
(``tests/loggops_oracle.py``) is the same model with one heap event per step.
For a fixed seed both must simulate the same run: finish time, per-rank
finish times, message records, every ``NetworkStats`` field, per-job stats,
convergence records, the completed-op count and the number of events
executed (ready-queue handlers count as events) — or raise the same
deadlock error.

Scenarios: 32-rank HPC application traces (eager and rendezvous), per-byte
CPU overhead, zero ``o``, a NIC gap, multi-stream ranks, topology-aware
latency with adaptive routing on a torus and a Slim Fly, timed faults with
convergent control planes (``gamma`` ramps), per-job attribution with
records off, and a seeded fuzz of tie-heavy random DAGs.  A queue that
ignores the sequence rule — ready entries run before same-instant heap
entries that are older — must make the comparison fail.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
from __future__ import annotations

import heapq
import random

import pytest

from loggops_oracle import FiveEventLogGOPSBackend
from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.goal import GoalBuilder
from repro.network.config import LogGOPSParams, SimulationConfig
from repro.network.events import EventQueue
from repro.network.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultSchedule
from repro.network.loggops import LogGOPSBackend
from repro.schedgen import mpi_trace_to_goal, nccl_trace_to_goal
from repro.scheduler import GoalScheduler, SchedulerDeadlockError


def _everything(schedule, backend, config):
    """All a run simulated, or the deadlock it ended in."""
    scheduler = GoalScheduler(schedule, backend, config, validate=False)
    try:
        result = scheduler.run()
    except SchedulerDeadlockError as exc:
        return {"deadlock": str(exc), "stuck": exc.stuck_per_rank}
    return {
        "finish": result.finish_time_ns,
        "rank_finish": tuple(result.rank_finish_times_ns),
        "records": tuple(result.message_records),
        "stats": vars(result.stats),
        "job_stats": {job: vars(s) for job, s in result.job_stats.items()},
        "convergence": tuple(result.convergence_records),
        "ops": result.ops_completed,
        "events": scheduler.events_executed,
    }


def _assert_exact(schedule, config):
    engine = _everything(schedule, "lgs", config)
    assert engine == _everything(schedule, FiveEventLogGOPSBackend(), config)
    return engine


def _hpc(app, ranks=32, iterations=2, seed=1):
    run = HpcRunConfig(num_ranks=ranks, iterations=iterations, seed=seed)
    return mpi_trace_to_goal(HPC_APPLICATIONS[app].trace(run))


_EAGER = LogGOPSParams.ai_cluster()  # S = 0: every message eager
_RENDEZVOUS = LogGOPSParams(L=3000, o=6000, g=0, G=0.18, S=1000)  # halos rendezvous


class TestApplicationTraces:
    @pytest.mark.parametrize("app", sorted(HPC_APPLICATIONS))
    @pytest.mark.parametrize("params", [_EAGER, _RENDEZVOUS], ids=["eager", "rendezvous"])
    def test_hpc_trace(self, app, params):
        out = _assert_exact(_hpc(app), SimulationConfig(loggops=params, seed=1))
        assert out["stats"]["messages_delivered"] > 0

    def test_rendezvous_cells_do_take_the_rendezvous_path(self):
        sizes = {
            size
            for rank in _hpc("lulesh").ranks
            for kind, size in zip(rank.kind, rank.size)
            if kind == 0
        }
        assert min(sizes) <= _RENDEZVOUS.S < max(sizes)

    @pytest.mark.parametrize(
        "params",
        [
            LogGOPSParams(L=3700, o=200, g=5, G=0.04, O=0.01, S=0),  # O > 0
            LogGOPSParams(L=3700, o=0, g=5, G=0.04, S=0),  # o = 0
            LogGOPSParams(L=1500, o=200, g=900, G=0.04, S=4096),  # the gap binds
        ],
        ids=["O>0", "o=0", "g>0"],
    )
    def test_overheads_and_gaps(self, params):
        _assert_exact(_hpc("hpcg"), SimulationConfig(loggops=params, seed=2))

    def test_multi_stream_ranks(self):
        par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=16)
        report = LlmTrainer(llama_7b().scaled(0.02), par, gpus_per_node=4, seed=3).trace()
        schedule = nccl_trace_to_goal(report, gpus_per_node=4)
        assert any(len(set(rank.cpu)) > 1 for rank in schedule.ranks)
        for params in (_EAGER, LogGOPSParams(L=1500, o=300, g=5, G=0.04, O=0.002, S=1 << 16)):
            _assert_exact(schedule, SimulationConfig(loggops=params, seed=3))


class TestTopologyAwareLatency:
    @pytest.mark.parametrize(
        "shape",
        [
            dict(topology="torus", torus_dims=(4, 4), torus_hosts_per_node=2),
            dict(topology="slimfly"),
        ],
        ids=["torus", "slimfly"],
    )
    @pytest.mark.parametrize("params", [_EAGER, _RENDEZVOUS], ids=["eager", "rendezvous"])
    def test_adaptive_routing(self, shape, params):
        config = SimulationConfig(routing="adaptive", loggops=params, seed=4, **shape)
        assert config.loggops_topology_enabled()
        _assert_exact(_hpc("hpcg"), config)


class TestFaults:
    # lulesh's messages run from about 0.65 ms to 2.85 ms (hpcg's from
    # 0.36 ms): the events and the ramps land in the middle of the traffic
    @pytest.mark.parametrize("control_plane", ["oracle", "dv", "ls"])
    def test_timed_faults_flat_latency(self, control_plane):
        faults = FaultSchedule(
            events=(
                FaultEvent(800_000, LINK_DOWN, "tor0->core0"),
                FaultEvent(800_000, LINK_DOWN, "core0->tor0"),
                FaultEvent(1_600_000, LINK_UP, "tor0->core0"),
                FaultEvent(1_600_000, LINK_UP, "core0->tor0"),
            )
        )
        config = SimulationConfig(
            nodes_per_tor=4,
            faults=faults,
            control_plane=control_plane,
            cp_propagation_ns=100_000,
            loggops=_RENDEZVOUS,
            seed=5,
        )
        out = _assert_exact(_hpc("lulesh"), config)
        assert len(out["convergence"]) == (0 if control_plane == "oracle" else 4)
        healthy = _everything(_hpc("lulesh"), "lgs", config.replace(faults=FaultSchedule()))
        assert out["records"] != healthy["records"]

    @pytest.mark.parametrize("control_plane", ["dv", "ls"])
    def test_timed_faults_routed(self, control_plane):
        # a fat tree keeps a route for every pair with one core cable down
        faults = FaultSchedule(
            events=(
                FaultEvent(500_000, LINK_DOWN, "tor0->core0"),
                FaultEvent(500_000, LINK_DOWN, "core0->tor0"),
            )
        )
        config = SimulationConfig(
            nodes_per_tor=4,
            loggops_use_topology=True,
            routing="adaptive",
            faults=faults,
            control_plane=control_plane,
            cp_propagation_ns=100_000,
            loggops=_EAGER,
            seed=6,
        )
        out = _assert_exact(_hpc("hpcg"), config)
        assert out["convergence"]
        healthy = _everything(_hpc("hpcg"), "lgs", config.replace(faults=FaultSchedule()))
        assert out["records"] != healthy["records"]


class TestAttribution:
    def test_job_tag_stride_with_records_off(self):
        config = SimulationConfig(
            topology="torus",
            torus_dims=(4, 4),
            torus_hosts_per_node=2,
            job_tag_stride=1000,
            collect_message_records=False,
            loggops=_RENDEZVOUS,
            seed=7,
        )
        out = _assert_exact(_hpc("icon"), config)
        assert out["records"] == () and out["job_stats"]

    def test_job_tag_stride_flat_latency(self):
        config = SimulationConfig(job_tag_stride=4, loggops=_EAGER, seed=7)
        assert len(_assert_exact(_hpc("hpcg"), config)["job_stats"]) > 1


# ---------------------------------------------------------------------------
# tie-heavy random DAGs
# ---------------------------------------------------------------------------
def _random_dag(rng: random.Random):
    """A few ranks of calcs and matched send/recv pairs on two CPU streams,
    each op depending on up to three earlier ops of its rank — durations and
    latencies in whole microseconds, so many events share an instant.
    Cross-rank dependency cycles (deadlocks) are allowed."""
    ranks = rng.randint(2, 4)
    b = GoalBuilder(ranks)
    handles = [[] for _ in range(ranks)]

    def requires(r):
        if not handles[r] or rng.random() < 0.2:
            return []
        return rng.sample(handles[r], min(len(handles[r]), rng.randint(1, 3)))

    for _ in range(rng.randint(4, 14)):
        cpu = rng.randint(0, 1)
        if rng.random() < 0.35:
            r = rng.randrange(ranks)
            handles[r].append(
                b.rank(r).calc(rng.choice((0, 1000, 2000)), cpu=cpu, requires=requires(r))
            )
            continue
        src, dst = rng.sample(range(ranks), 2)
        tag, size = rng.randint(0, 1), rng.choice((8, 64, 4096))
        handles[src].append(b.rank(src).send(size, dst=dst, tag=tag, cpu=cpu, requires=requires(src)))
        handles[dst].append(
            b.rank(dst).recv(size, src=src, tag=tag, cpu=rng.randint(0, 1), requires=requires(dst))
        )
    return b.build()


def _random_params(rng: random.Random) -> LogGOPSParams:
    return LogGOPSParams(
        L=rng.choice((0, 1000)),
        o=rng.choice((0, 1000)),
        g=rng.choice((0, 1000)),
        G=0.0,
        S=rng.choice((0, 0, 64)),
    )


def _fuzz_cells(seed, cells):
    rng = random.Random(seed)
    return [(_random_dag(rng), SimulationConfig(loggops=_random_params(rng))) for _ in range(cells)]


class TestTieHeavyFuzz:
    @pytest.mark.parametrize("params", [_EAGER, _RENDEZVOUS], ids=["eager", "rendezvous"])
    def test_cyclic_deadlock_raises_the_same_error(self, params):
        b = GoalBuilder(3)
        for r in range(3):
            recv = b.rank(r).recv(4096, src=(r - 1) % 3, tag=1)
            b.rank(r).send(4096, dst=(r + 1) % 3, tag=1, requires=[recv])
        out = _assert_exact(b.build(), SimulationConfig(loggops=params))
        assert out["stuck"] == {0: 2, 1: 2, 2: 2}

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, seed):
        outcomes = [_assert_exact(schedule, config) for schedule, config in _fuzz_cells(seed, 25)]
        assert any("deadlock" not in out for out in outcomes)


def test_an_op_issued_for_later_waits_on_the_heap():
    """The backend API allows a ready time after now; such an op is a heap
    event, as in the oracle, not a ready entry."""
    runs = []
    for backend in (LogGOPSBackend(), FiveEventLogGOPSBackend()):
        backend.setup(2, SimulationConfig(loggops=_EAGER))
        done = []
        backend.issue_send(0, 1, 64, 0, 0, 0, 5_000)  # same CPU stream as the next
        backend.issue_send(0, 1, 64, 1, 0, 1, 0)
        backend.issue_recv(1, 0, 64, 0, 0, 2, 0)
        backend.issue_recv(1, 0, 64, 1, 0, 3, 0)
        backend.run(lambda time, rank, op_id: done.append((time, rank, op_id)))
        runs.append((done, backend.records))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == (200, 0, 1)


def _seq_blind_run(self, until=None, max_events=None):
    """``EventQueue.run`` that runs every ready entry before any heap entry."""
    heap, ready = self._heap, self._ready
    while ready or heap:
        if ready:
            entry = ready.popleft()
        else:
            entry = heapq.heappop(heap)
            self._now = entry[0]
        entry[-2](entry[0], entry[-1])
        self.executed += 1
    return self._now


def test_a_queue_that_ignores_the_sequence_rule_fails_the_comparison(monkeypatch):
    monkeypatch.setattr(EventQueue, "run", _seq_blind_run)
    cells = _fuzz_cells(0, 25) + [
        (_hpc("hpcg"), SimulationConfig(loggops=_RENDEZVOUS, seed=1))
    ]
    differing = sum(
        _everything(schedule, "lgs", config)
        != _everything(schedule, FiveEventLogGOPSBackend(), config)
        for schedule, config in cells
    )
    assert differing > 0
