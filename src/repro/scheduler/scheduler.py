"""The GOAL scheduler (the paper's "workload simulation pipeline").

The scheduler walks every rank's dependency DAG and issues operations to the
configured network backend as soon as their dependencies are satisfied.  The
backend reports completions back (``eventOver``), which unlocks successor
vertices; the loop continues until every vertex of every rank has executed.

The scheduler is backend-agnostic: it performs no timing itself beyond
propagating completion times as the ready times of successors.  Compute
streams, LogGOPS overheads, queues and congestion control all live behind
the :class:`~repro.network.backend.NetworkBackend` API.
"""
from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.goal.ops import OpType
from repro.goal.schedule import GoalSchedule
from repro.goal.validate import validate_schedule
from repro.network.backend import NetworkBackend, SimulationResult, create_backend
from repro.network.config import SimulationConfig


# plain ints: the kind column holds ints, and comparing two of those is the
# interpreter's fast path (an IntEnum member on one side is not)
_SEND = int(OpType.SEND)
_CALC = int(OpType.CALC)

# a vertex's state in the per-run ``issued`` bytearray: 0 not issued yet,
# then issued, then done
_ISSUED = 1
_DONE = 2
#: Ranks whose first blocked vertex a deadlock report names.
_REPORT_RANKS = 8
#: The simulated clock is a signed 64-bit count of nanoseconds (what a
#: result's digest hashes); a run that passes it is refused.
_CLOCK_LIMIT = 1 << 63
_CLOCK_OVERFLOW = "simulated time does not fit 64 bits (must be < 2**63 ns)"


class SchedulerDeadlockError(RuntimeError):
    """Raised when the simulation drains without executing every vertex.

    This indicates a structural problem in the GOAL schedule (e.g. a receive
    whose matching send never happens, or a dependency cycle across ranks via
    messages).  The message names the first blocked (issued, never
    completed) vertex of the first few stuck ranks and the backend's
    :meth:`~repro.network.backend.NetworkBackend.unmatched_state`;
    ``stuck_per_rank`` counts every incomplete vertex per rank.
    """

    def __init__(self, message: str, stuck_per_rank: Dict[int, int]) -> None:
        super().__init__(message)
        self.stuck_per_rank = stuck_per_rank


def check_shards(shards: int, backend: str) -> None:
    """Reject ``shards > 1`` on any backend but the packet one (``"htsim"``).

    The analytic LogGOPS backend has no packet events to shard; a silently
    ignored shard count would report single-process runs as parallel ones.
    """
    if shards > 1 and backend != "htsim":
        raise ValueError(
            f"--shards {shards} requires the packet backend: pass "
            f"--backend htsim (the {backend!r} backend is analytic "
            "and runs single-process)"
        )


class GoalScheduler:
    """Replays a :class:`~repro.goal.schedule.GoalSchedule` on a backend.

    Parameters
    ----------
    schedule:
        The GOAL program to simulate.
    backend:
        A :class:`NetworkBackend` instance, or a backend name accepted by
        :func:`repro.network.backend.create_backend` (``"lgs"``, ``"htsim"``).
    config:
        Simulation configuration; a default-constructed
        :class:`SimulationConfig` is used when omitted.
    validate:
        Run :func:`repro.goal.validate.validate_schedule` before simulating.
    op_groups:
        Optional vertex→group mapping, one list of group ids per rank (same
        shape as the rank's op list; ``-1`` = ungrouped).  When given, the
        result carries one :class:`~repro.network.backend.GroupStats` per
        group: its completion time, and the messages, bytes and per-link
        bytes its send ops put on the fabric — the co-tenancy engine uses
        groups to attribute per-job results even when several jobs share a
        rank.  Attribution adds one dict update per finished op and per
        delivered message, so the hot path is untouched when the mapping is
        absent.
    ranks:
        Restrict issuing (and the completion ledger) to this subset of
        ranks.  Used by the sharded packet engine, where each shard's
        scheduler walks only the DAGs of the ranks it owns — global op ids
        and tags stay identical to the unrestricted scheduler because the
        full schedule still defines the offsets.  ``None`` (the default)
        schedules every rank.
    """

    def __init__(
        self,
        schedule: GoalSchedule,
        backend: "NetworkBackend | str" = "lgs",
        config: Optional[SimulationConfig] = None,
        validate: bool = True,
        op_groups: Optional[List[List[int]]] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> None:
        self.schedule = schedule
        self.config = config if config is not None else SimulationConfig()
        self.backend = create_backend(backend) if isinstance(backend, str) else backend
        if validate:
            validate_schedule(schedule)

        # Global vertex ids: rank r, vertex v  ->  offset[r] + v.  Offsets
        # always cover the full schedule so op ids are identical whether or
        # not issuing is restricted to a rank subset.
        self._offsets: List[int] = []
        total = 0
        for rank in schedule.ranks:
            self._offsets.append(total)
            total += len(rank)
        self._ranks = (
            list(range(schedule.num_ranks)) if ranks is None else sorted(ranks)
        )
        self._total_ops = (
            total
            if ranks is None
            else sum(len(schedule.ranks[r]) for r in self._ranks)
        )

        # Per owned rank (``None`` for a rank another shard owns): the
        # rank's own columns and cached successor index, read in place, then
        # this run's issued marks and countdown of unmet dependencies.
        self._tables: List[Optional[tuple]] = [None] * schedule.num_ranks
        for r in self._ranks:
            rank = schedule.ranks[r]
            self._tables[r] = (
                rank.kind, rank.size, rank.peer, rank.tag, rank.cpu,
                *rank.succ_csr(), bytearray(len(rank)), rank.in_degrees(),
            )
        # bound issue methods, resolved once instead of twice per operation
        self._issue_calc = self.backend.issue_calc
        self._issue_send = self.backend.issue_send
        self._issue_recv = self.backend.issue_recv
        self._completed = 0
        # per-rank completion time of the rank's last op; the run's finish
        # time is their max
        self._rank_finish: List[int] = [0] * schedule.num_ranks
        self._sharded_events: Optional[int] = None

        self._op_groups = op_groups
        # the group of every global op id, the one table the backend reads
        self._op_group: Optional[List[int]] = None
        self._group_finish: Dict[int, int] = {}
        if op_groups is not None:
            if len(op_groups) != schedule.num_ranks or any(
                len(groups) != len(rank)
                for groups, rank in zip(op_groups, schedule.ranks)
            ):
                raise ValueError(
                    "op_groups must provide one group id per op of every rank"
                )
            self._op_group = [group for groups in op_groups for group in groups]

    # ------------------------------------------------------------------ public
    def run(self) -> SimulationResult:
        """Simulate the schedule to completion and return the result.

        A run whose clock passes 64 bits is one ``ValueError``: :meth:`finish`
        checks the finish time, and a time past ``2**64`` that reached a
        64-bit store inside the event loop surfaces here as ``OverflowError``.
        """
        try:
            if self.config.shards > 1:
                # conservative-window parallel packet engine (docs/scaling.md):
                # run_sharded builds one rank-restricted scheduler per shard and
                # steps their event loops in lookahead windows via start()/
                # finish() — never run(), so this dispatch cannot recurse.
                check_shards(self.config.shards, self.backend.name)
                from repro.network.packet.sharded import run_sharded

                result, self._sharded_events = run_sharded(
                    self.schedule, self.config, op_groups=self._op_groups
                )
                return result
            wall_start = _time.perf_counter()
            self.start()
            self.backend.run(self.completion_callback())
            wall_elapsed = _time.perf_counter() - wall_start
        except OverflowError:
            raise ValueError(_CLOCK_OVERFLOW) from None
        return self.finish(wall_elapsed)

    def start(self) -> None:
        """Set up the backend, hand it the op groups and the completion
        handler, and issue every root vertex (ready at t=0).

        Together with :meth:`completion_callback` and :meth:`finish` this is
        the decomposed form of :meth:`run` for callers that drive the
        backend's event loop themselves (the sharded engine advances it in
        lookahead windows between barriers).
        """
        self.backend.setup(self.schedule.num_ranks, self.config)
        self.backend.op_group = self._op_group
        self.backend.on_complete = self.completion_callback()
        ranks = self.schedule.ranks
        for r in self._ranks:
            rank = ranks[r]
            for vertex in rank.roots():
                self._issue(rank.rank, vertex, 0)

    def completion_callback(self):
        """The ``eventOver`` handler the backend calls per finished op, as
        ``handler(time, (rank, op_id))``; :meth:`start` hands it over."""
        return (
            self._on_complete if self._op_group is None else self._on_complete_grouped
        )

    def finish(self, wall_elapsed: float = 0.0) -> SimulationResult:
        """Verify completion after the event loop drained; assemble the result."""
        if self._completed != self._total_ops:
            raise self._deadlock_error()
        finish_time = max(self._rank_finish)
        if finish_time >= _CLOCK_LIMIT:
            raise ValueError(f"{_CLOCK_OVERFLOW}: the run ends at {finish_time} ns")

        links = self.backend.collect_links()
        return SimulationResult(
            finish_time_ns=finish_time,
            rank_finish_times_ns=list(self._rank_finish),
            stats=self.backend.collect_stats(links),
            message_records=self.backend.collect_message_records(),
            ops_completed=self._completed,
            backend=self.backend.name,
            wall_clock_s=wall_elapsed,
            groups=self.backend.group_stats(self._group_finish),
            links=links,
            convergence_records=list(self.backend.convergence_events),
        )

    @property
    def events_executed(self) -> int:
        """Events executed by the backend's loop(s); sharded runs sum shards."""
        if self._sharded_events is not None:
            return self._sharded_events
        return self.backend.events.executed

    # ---------------------------------------------------------------- internals
    def _issue(self, rank: int, vertex: int, ready_time: int) -> None:
        kinds, sizes, peers, tags, cpus, _, _, issued, _ = self._tables[rank]
        if issued[vertex]:
            raise RuntimeError(f"vertex {vertex} of rank {rank} issued twice")
        issued[vertex] = _ISSUED
        op_id = self._offsets[rank] + vertex
        kind = kinds[vertex]
        if kind == _CALC:
            self._issue_calc(rank, cpus[vertex], sizes[vertex], op_id, ready_time)
        elif kind == _SEND:
            self._issue_send(
                rank, peers[vertex], sizes[vertex], tags[vertex], cpus[vertex], op_id, ready_time
            )
        else:
            self._issue_recv(
                rank, peers[vertex], sizes[vertex], tags[vertex], cpus[vertex], op_id, ready_time
            )

    def _on_complete(self, time: int, payload: Tuple[int, int]) -> None:
        """``eventOver``: op ``(rank, op_id)`` finished at ``time``; unlock
        and issue the successors of its vertex."""
        rank, op_id = payload
        self._completed += 1
        if time > self._rank_finish[rank]:
            self._rank_finish[rank] = time
        table = self._tables[rank]
        offset = self._offsets[rank]
        vertex = op_id - offset
        issued = table[7]
        issued[vertex] = _DONE
        succ_ptr = table[5]
        first = succ_ptr[vertex]
        last = succ_ptr[vertex + 1]
        if first == last:
            return
        kinds, sizes, peers, tags, cpus, _, succ_idx, _, indegree = table
        # inlined _issue, same issue order
        for succ in succ_idx[first:last]:
            left = indegree[succ] - 1
            indegree[succ] = left
            if left:
                continue
            if issued[succ]:
                raise RuntimeError(f"vertex {succ} of rank {rank} issued twice")
            issued[succ] = _ISSUED
            kind = kinds[succ]
            if kind == _CALC:
                self._issue_calc(rank, cpus[succ], sizes[succ], offset + succ, time)
            elif kind == _SEND:
                self._issue_send(
                    rank, peers[succ], sizes[succ], tags[succ], cpus[succ], offset + succ, time
                )
            else:
                self._issue_recv(
                    rank, peers[succ], sizes[succ], tags[succ], cpus[succ], offset + succ, time
                )

    def _on_complete_grouped(self, time: int, payload: Tuple[int, int]) -> None:
        """``eventOver`` variant that additionally tracks per-group finish times."""
        group = self._op_group[payload[1]]
        if group >= 0 and time > self._group_finish.get(group, -1):
            self._group_finish[group] = time
        self._on_complete(time, payload)

    def _deadlock_error(self) -> SchedulerDeadlockError:
        stuck: Dict[int, int] = {}
        for r in self._ranks:
            issued = self._tables[r][7]
            count = len(issued) - issued.count(_DONE)
            if count:
                stuck[r] = count
        blocked = []
        for r in list(stuck)[:_REPORT_RANKS]:
            kinds, sizes, peers, tags, _, _, _, issued, _ = self._tables[r]
            v = issued.find(_ISSUED)
            if v < 0:
                continue
            kind = kinds[v]
            if kind == _CALC:
                what = f"calc {sizes[v]} ns"
            elif kind == _SEND:
                what = f"send {sizes[v]} B to {peers[v]} tag {tags[v]}"
            else:
                what = f"recv {sizes[v]} B from {peers[v]} tag {tags[v]}"
            blocked.append(f"rank {r} vertex {v} ({what})")
        if len(stuck) > _REPORT_RANKS:
            blocked.append(f"+{len(stuck) - _REPORT_RANKS} more ranks")
        unmatched = ", ".join(
            f"{key}={value}" for key, value in self.backend.unmatched_state().items()
        )
        return SchedulerDeadlockError(
            f"simulation deadlocked: {self._total_ops - self._completed} of "
            f"{self._total_ops} operations never completed on {len(stuck)} "
            f"ranks; blocked: {', '.join(blocked)}; unmatched: {unmatched}",
            stuck,
        )


def simulate(
    schedule: GoalSchedule,
    backend: "NetworkBackend | str" = "lgs",
    config: Optional[SimulationConfig] = None,
    validate: bool = True,
    op_groups: Optional[List[List[int]]] = None,
) -> SimulationResult:
    """Convenience wrapper: construct a :class:`GoalScheduler` and run it."""
    return GoalScheduler(
        schedule, backend=backend, config=config, validate=validate, op_groups=op_groups
    ).run()
