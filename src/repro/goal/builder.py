"""Fluent construction API for GOAL schedules.

All schedule generators in the toolchain (:mod:`repro.schedgen`) build their
output through :class:`GoalBuilder` rather than poking at
:class:`~repro.goal.schedule.RankSchedule` internals.  The builder returns
opaque vertex handles from every ``send`` / ``recv`` / ``calc`` call; a later
op names the earlier ones it waits for in its ``requires``.  Ranks only grow:
an edge is declared when its dependent op is added, never afterwards.

Example
-------
>>> from repro.goal import GoalBuilder
>>> b = GoalBuilder(num_ranks=2, name="pingpong")
>>> r0, r1 = b.rank(0), b.rank(1)
>>> c = r0.calc(100)
>>> r0.send(8, dst=1, tag=7, requires=(c,))
1
>>> r1.recv(8, src=0, tag=7)
0
>>> sched = b.build()
>>> sched.num_ops()
3
>>> sched.ranks[0].preds[1]
[0]
"""
from __future__ import annotations

from typing import Iterable, List

from repro.goal.ops import _CALC, _RECV, _SEND
from repro.goal.schedule import GoalSchedule, RankSchedule

VertexHandle = int


class RankBuilder:
    """Builder for a single rank's DAG.  Obtained from :meth:`GoalBuilder.rank`."""

    def __init__(self, schedule: RankSchedule) -> None:
        self._sched = schedule
        # ops go into the rank's columns as scalars; no Op object is built
        self._append = schedule.append_op

    @property
    def rank(self) -> int:
        return self._sched.rank

    def __len__(self) -> int:
        return len(self._sched)

    # -- op insertion --------------------------------------------------------
    def send(
        self,
        size: int,
        dst: int,
        tag: int = 0,
        cpu: int = 0,
        requires: Iterable[VertexHandle] = (),
    ) -> VertexHandle:
        """Add a ``send`` of ``size`` bytes to rank ``dst``; return its handle."""
        return self._append(_SEND, size, dst, tag, cpu, requires)

    def recv(
        self,
        size: int,
        src: int,
        tag: int = 0,
        cpu: int = 0,
        requires: Iterable[VertexHandle] = (),
    ) -> VertexHandle:
        """Add a ``recv`` of ``size`` bytes from rank ``src``; return its handle."""
        return self._append(_RECV, size, src, tag, cpu, requires)

    def sendrecv(
        self, send_bytes: int, dst: int, recv_bytes: int, src: int, tag: int = 0, cpu: int = 0,
        requires: Iterable[VertexHandle] = (),
    ) -> VertexHandle:
        """Add a send to ``dst`` and a recv from ``src``, both after ``requires``, and
        their :meth:`join` on ``cpu``; return the join's handle (one block append)."""
        return self._sched.append_sendrecv(send_bytes, dst, recv_bytes, src, tag, cpu, requires)

    def calc(
        self,
        duration_ns: int,
        cpu: int = 0,
        requires: Iterable[VertexHandle] = (),
    ) -> VertexHandle:
        """Add a ``calc`` of ``duration_ns`` nanoseconds; return its handle."""
        return self._append(_CALC, duration_ns, None, 0, cpu, requires)

    def join(self, deps: Iterable[VertexHandle], cpu: int = 0) -> VertexHandle:
        """Insert a dummy vertex depending on all of ``deps`` and return it.

        This is the "dummy node" construction used in Stages 2 and 4 of the
        NCCL pipeline to synchronise streams.
        """
        return self._append(_CALC, 0, None, 0, cpu, deps)


class GoalBuilder:
    """Builder for a whole GOAL program.

    Parameters
    ----------
    num_ranks:
        Number of ranks in the program.
    name:
        Schedule name propagated into the resulting :class:`GoalSchedule`.
    """

    def __init__(self, num_ranks: int, name: str = "goal") -> None:
        self._schedule = GoalSchedule(num_ranks, name=name)
        self._rank_builders = [RankBuilder(r) for r in self._schedule.ranks]

    @property
    def num_ranks(self) -> int:
        return self._schedule.num_ranks

    def rank(self, rank: int) -> RankBuilder:
        """Return the :class:`RankBuilder` for ``rank``."""
        return self._rank_builders[rank]

    def ranks(self) -> List[RankBuilder]:
        """Return builders for all ranks, in rank order."""
        return list(self._rank_builders)

    def build(self) -> GoalSchedule:
        """Return the constructed :class:`GoalSchedule`.

        The builder may continue to be used afterwards; the same underlying
        schedule object is returned each time.
        """
        return self._schedule
