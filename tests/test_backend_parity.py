"""Cross-backend differential test harness.

Runs a grid of small GOAL schedules — pt2pt chains, incast, ring-allreduce,
all-to-all and inference-serving patterns across two topologies — through **both** the
message-level (LogGOPS) and the packet-level backend, and asserts the
invariants any pair of correct network simulators must share:

* **completion** — both backends execute every GOAL op and deliver every
  message,
* **conservation of bytes per rank** — per-rank sent/received byte totals
  derived from the message records are identical across backends and match
  the schedule's declared communication ops,
* **monotone finish times** — message completions never precede their
  posts, rank finish times bound their ranks' message completions, and the
  makespan bounds everything,
* **model ordering** — on uncongested runs with calibrated parameters
  (LogGOPS ``L`` lower-bounding the packet path's propagation delay and
  ``G`` matching the link bandwidth), the contention-free LogGOPS model
  finishes no later than the packet model, which additionally pays per-hop
  store-and-forward serialisation and window ramp-up.

The grid is parameterized over an optional :class:`FaultSchedule`, so the
fault-injection paths run through the exact same invariants (the model
ordering is skipped there: capacity-factor inflation and packet rerouting
degrade along different axes by design).

Convergence cells additionally run a timed mid-run failure under every
registered control plane (oracle / ls / dv) and assert the convergence
accounting: bytes are conserved *including* blackholed packets (every sent
packet is delivered, queue-dropped, trimmed, stranded or blackholed — nothing
vanishes), the oracle's time-to-recover is exactly zero on both backends,
and the real protocols report the same positive convergence window on both.
"""
import pytest

from repro.goal import GoalSchedule, Op
from repro.network import FaultEvent, FaultSchedule, SimulationConfig
from repro.goal.ops import OpType
from repro.network.faults import LINK_DOWN
from repro.schedgen import all_to_all, incast, ring_allreduce_microbenchmark
from repro.scheduler import simulate
from differential import assert_ledger


def _pt2pt(chunks: int = 4, size: int = 1 << 15) -> GoalSchedule:
    """A dependent chain of pt2pt messages between two ranks."""
    sched = GoalSchedule(2, name="pt2pt")
    sender, receiver = sched.ranks
    prev_send = None
    prev_recv = None
    for i in range(chunks):
        prev_send = sender.add_op(
            Op.send(size, dst=1, tag=i), () if prev_send is None else (prev_send,)
        )
        prev_recv = receiver.add_op(
            Op.recv(size, src=0, tag=i), () if prev_recv is None else (prev_recv,)
        )
    return sched


def _inference(num_requests: int = 12, rate_rps: float = 150.0) -> GoalSchedule:
    """A low-rate serving cell: calibrated-uncongested on the parity config.

    150 req/s against a ~780 req/s fleet keeps the prefill queue empty and
    the KV flows far below line rate, so the model-ordering invariant (lgs
    <= packet) applies to the serving DAG's mix of calcs, streamed compute
    and message flows.
    """
    from repro.apps.inference import build_inference_workload

    return build_inference_workload(
        num_requests=num_requests, rate_rps=rate_rps, seed=5
    ).schedule


def _parity_config(topology: str, faults: FaultSchedule = None) -> SimulationConfig:
    """Calibrated parameters: the LogGOPS model lower-bounds the packet model.

    ``G`` is the reciprocal of the link bandwidth, ``o`` equals the packet
    backend's host overhead, and ``L`` (two hops of propagation) is a lower
    bound of every packet path's propagation delay, so on uncongested runs
    the contention-free LogGOPS prediction cannot exceed the packet one.
    """
    from repro.network.config import LogGOPSParams

    return SimulationConfig(
        topology=topology,
        nodes_per_tor=4,
        link_bandwidth=25.0,
        link_latency=500,
        host_overhead=200,
        loggops=LogGOPSParams(L=1000, o=200, g=5, G=0.04, O=0.0, S=0),
        faults=faults if faults is not None else FaultSchedule(),
        seed=1,
    )


#: One core cable of the fat tree down from time 0 (fault-parameterized grid).
_FAULTS = FaultSchedule(failed_links=("tor0->core0", "core0->tor0"))

# (cell id, schedule factory, topology, uncongested, faults)
_GRID = [
    ("pt2pt-single", _pt2pt, "single_switch", True, None),
    ("pt2pt-fattree", _pt2pt, "fat_tree", True, None),
    ("incast-single", lambda: incast(8, 1 << 15), "single_switch", False, None),
    ("incast-fattree", lambda: incast(8, 1 << 15), "fat_tree", False, None),
    (
        "allreduce-single",
        lambda: ring_allreduce_microbenchmark(8, 1 << 16),
        "single_switch",
        True,
        None,
    ),
    (
        "allreduce-fattree",
        lambda: ring_allreduce_microbenchmark(8, 1 << 16),
        "fat_tree",
        True,
        None,
    ),
    ("alltoall-fattree", lambda: all_to_all(8, 1 << 14), "fat_tree", False, None),
    # inference-serving cells: open-loop arrivals, prefill/decode phases,
    # continuous batching (see repro.apps.inference)
    ("inference-single", _inference, "single_switch", True, None),
    ("inference-fattree", _inference, "fat_tree", True, None),
    # fault-injection cells: same invariants on a degraded fabric
    ("pt2pt-fattree-faulted", _pt2pt, "fat_tree", False, _FAULTS),
    (
        "allreduce-fattree-faulted",
        lambda: ring_allreduce_microbenchmark(8, 1 << 16),
        "fat_tree",
        False,
        _FAULTS,
    ),
    ("alltoall-fattree-faulted", lambda: all_to_all(8, 1 << 14), "fat_tree", False, _FAULTS),
    ("inference-fattree-faulted", _inference, "fat_tree", False, _FAULTS),
]

#: A core cable fails mid-run (while all-to-all traffic crosses it).
_CONVERGENCE_FAULTS = FaultSchedule(
    events=(
        FaultEvent(3_000, LINK_DOWN, "tor0->core0"),
        FaultEvent(3_000, LINK_DOWN, "core0->tor0"),
    )
)

# convergence cells: same invariants plus control-plane accounting; the 6th
# field selects the control plane (absent = oracle, the default)
_CONVERGENCE_CELL_IDS = []
for _cp_name in ("oracle", "ls", "dv"):
    _GRID.append(
        (
            f"alltoall-fattree-cp-{_cp_name}",
            lambda: all_to_all(8, 1 << 14),
            "fat_tree",
            False,
            _CONVERGENCE_FAULTS,
            _cp_name,
        )
    )
    _CONVERGENCE_CELL_IDS.append(f"alltoall-fattree-cp-{_cp_name}")

_CELL_IDS = [cell[0] for cell in _GRID]


def _declared_bytes(schedule: GoalSchedule):
    """Per-rank (sent, received) byte totals declared by the GOAL program."""
    sent = {r.rank: 0 for r in schedule.ranks}
    received = {r.rank: 0 for r in schedule.ranks}
    for rank in schedule.ranks:
        for op in rank.ops:
            if op.kind is OpType.SEND:
                sent[rank.rank] += op.size
            elif op.kind is OpType.RECV:
                received[rank.rank] += op.size
    return sent, received


def _record_bytes(result):
    """Per-rank (sent, received) byte totals observed in the message records."""
    sent = {}
    received = {}
    for rec in result.message_records:
        sent[rec.src] = sent.get(rec.src, 0) + rec.size
        received[rec.dst] = received.get(rec.dst, 0) + rec.size
    return sent, received


def _run_cell(cell):
    _, make_schedule, topology, _, faults = cell[:5]
    schedule = make_schedule()
    config = _parity_config(topology, faults)
    if len(cell) > 5:
        # convergence cell: a slow control plane so the stale window is
        # wide enough to blackhole live all-to-all traffic
        config = config.replace(control_plane=cell[5], cp_propagation_ns=50_000)
    lgs = simulate(schedule, backend="lgs", config=config)
    pkt = simulate(schedule, backend="htsim", config=config)
    return schedule, lgs, pkt


@pytest.fixture(scope="module")
def cell_results():
    """Each grid cell simulated once on both backends (shared by all tests)."""
    return {cell[0]: _run_cell(cell) for cell in _GRID}


@pytest.mark.parametrize("cell_id", _CELL_IDS)
def test_both_backends_complete(cell_results, cell_id):
    schedule, lgs, pkt = cell_results[cell_id]
    total_ops = sum(len(r.ops) for r in schedule.ranks)
    assert lgs.ops_completed == total_ops
    assert pkt.ops_completed == total_ops
    assert lgs.stats.messages_delivered == pkt.stats.messages_delivered
    assert lgs.stats.bytes_delivered == pkt.stats.bytes_delivered


@pytest.mark.parametrize("cell_id", _CELL_IDS)
def test_bytes_conserved_per_rank(cell_results, cell_id):
    schedule, lgs, pkt = cell_results[cell_id]
    declared_sent, declared_received = _declared_bytes(schedule)
    for result in (lgs, pkt):
        sent, received = _record_bytes(result)
        for rank in range(schedule.num_ranks):
            assert sent.get(rank, 0) == declared_sent[rank], (
                f"{cell_id}/{result.backend}: rank {rank} sent bytes diverge"
            )
            assert received.get(rank, 0) == declared_received[rank], (
                f"{cell_id}/{result.backend}: rank {rank} received bytes diverge"
            )


@pytest.mark.parametrize("cell_id", _CELL_IDS)
def test_finish_times_monotone(cell_results, cell_id):
    _, lgs, pkt = cell_results[cell_id]
    for result in (lgs, pkt):
        assert result.finish_time_ns > 0
        assert result.finish_time_ns == max(result.rank_finish_times_ns)
        latest_completion = 0
        for rec in result.message_records:
            assert rec.completion_time >= rec.post_time, (
                f"{cell_id}/{result.backend}: message completed before its post"
            )
            latest_completion = max(latest_completion, rec.completion_time)
        assert result.finish_time_ns >= latest_completion
        # the destination rank cannot finish before its last arrival
        for rec in result.message_records:
            assert result.rank_finish_times_ns[rec.dst] >= rec.completion_time


@pytest.mark.parametrize(
    "cell_id", [cell[0] for cell in _GRID if cell[3]]
)
def test_lgs_lower_bounds_packet_when_uncongested(cell_results, cell_id):
    """Contention-free LogGOPS finishes no later than the packet model."""
    _, lgs, pkt = cell_results[cell_id]
    assert lgs.finish_time_ns <= pkt.finish_time_ns, (
        f"{cell_id}: lgs {lgs.finish_time_ns} ns > packet {pkt.finish_time_ns} ns"
    )


@pytest.mark.parametrize(
    "cell_id",
    [cell[0] for cell in _GRID if cell[4] is not None and cell[0].endswith("-faulted")],
)
def test_fault_cells_degrade_both_backends(cell_results, cell_id):
    """Fault cells slow both models relative to their healthy twin cell."""
    healthy_id = cell_id.removesuffix("-faulted")
    _, lgs_h, pkt_h = cell_results[healthy_id]
    _, lgs_f, pkt_f = cell_results[cell_id]
    assert lgs_f.finish_time_ns >= lgs_h.finish_time_ns
    assert pkt_f.finish_time_ns >= pkt_h.finish_time_ns


@pytest.mark.parametrize("cell_id", _CONVERGENCE_CELL_IDS)
def test_convergence_cells_conserve_packets_including_blackholed(
    cell_results, cell_id
):
    """Every sent packet is accounted for: nothing vanishes silently.

    On the packet backend, a DATA packet ends in exactly one of five
    ledgers — delivered, queue-dropped, trimmed, stranded by a fault with no
    surviving continuation, or blackholed by a stale switch — and lost
    packets are recovered by retransmission (each retransmission is a new
    sent packet), so the books balance exactly.
    """
    _, lgs, pkt = cell_results[cell_id]
    assert_ledger(pkt.stats)
    # the message-level backend models convergence as a capacity ramp; it
    # forwards no packets and therefore blackholes none
    assert lgs.stats.packets_blackholed == 0


@pytest.mark.parametrize("cell_id", _CONVERGENCE_CELL_IDS)
def test_convergence_accounting_across_backends(cell_results, cell_id):
    """Oracle TTR is exactly zero; real protocols agree across backends."""
    _, lgs, pkt = cell_results[cell_id]
    if cell_id.endswith("oracle"):
        assert lgs.stats.time_to_recover_ns == 0
        assert pkt.stats.time_to_recover_ns == 0
        assert pkt.stats.packets_blackholed == 0
    else:
        # the convergence window is a property of the fabric and protocol,
        # not of the traffic model: both backends report the same positive
        # time-to-recover
        assert lgs.stats.time_to_recover_ns > 0
        assert lgs.stats.time_to_recover_ns == pkt.stats.time_to_recover_ns
        # the mid-run failure crosses live traffic: stale ToRs blackhole
        assert pkt.stats.packets_blackholed > 0
