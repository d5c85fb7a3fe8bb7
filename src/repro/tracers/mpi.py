"""liballprof-style MPI traces.

The paper traces MPI applications with ``liballprof``, a thin PMPI wrapper
that records every MPI call, its arguments and its start/end timestamps
(§3.1.1).  This module defines the same information as Python objects plus a
compact line-oriented text serialisation whose on-disk size stands in for the
"Trace (MiB)" column of Table 1.

The only information the schedule generator consumes is, per rank, the
ordered sequence of calls with their arguments and the *gaps* between
consecutive calls (the inferred computation), so the format stores exactly
that.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: MPI calls understood by the schedule generator.
P2P_CALLS = {"MPI_Send", "MPI_Recv", "MPI_Sendrecv"}
COLLECTIVE_CALLS = {
    "MPI_Allreduce",
    "MPI_Reduce",
    "MPI_Bcast",
    "MPI_Barrier",
    "MPI_Allgather",
    "MPI_Alltoall",
    "MPI_Gather",
    "MPI_Scatter",
    "MPI_Reduce_scatter",
}
KNOWN_CALLS = P2P_CALLS | COLLECTIVE_CALLS


@dataclass(slots=True)
class MpiEvent:
    """One traced MPI call on one rank.

    Attributes
    ----------
    call:
        MPI function name (``MPI_Allreduce``, ``MPI_Send``, ...).
    start_ns / end_ns:
        Wall-clock timestamps of the call on this rank.
    size:
        Message/buffer size in bytes (count * datatype size).  For
        ``MPI_Sendrecv`` this is the send size; ``recv_size`` holds the other
        direction.  For all-to-all style calls it is the per-pair size.
    peer:
        Peer rank for point-to-point calls (destination for sends, source for
        receives), else ``None``.
    recv_peer / recv_size:
        Second leg of an ``MPI_Sendrecv``.
    root:
        Root rank for rooted collectives.
    comm:
        Communicator id (0 is ``MPI_COMM_WORLD``).
    tag:
        Message tag for point-to-point calls.
    seq:
        Per-communicator collective sequence number assigned by the tracer;
        used by the generator to correlate the same collective across ranks.
    """

    call: str
    start_ns: int
    end_ns: int
    size: int = 0
    peer: Optional[int] = None
    recv_peer: Optional[int] = None
    recv_size: int = 0
    root: int = 0
    comm: int = 0
    tag: int = 0
    seq: int = 0

    def __post_init__(self) -> None:
        if self.call not in KNOWN_CALLS:
            raise ValueError(f"unknown MPI call {self.call!r}")
        if self.end_ns < self.start_ns:
            raise ValueError("event ends before it starts")
        if self.size < 0 or self.recv_size < 0:
            raise ValueError("sizes must be non-negative")


@dataclass
class MpiTrace:
    """A complete liballprof-style trace: one event list per rank."""

    num_ranks: int
    name: str = "mpi-app"
    events: List[List[MpiEvent]] = field(default_factory=list)
    #: ranks of each communicator id (comm 0 defaults to all ranks)
    communicators: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if not self.events:
            self.events = [[] for _ in range(self.num_ranks)]
        if len(self.events) != self.num_ranks:
            raise ValueError("need exactly one event list per rank")
        self.communicators.setdefault(0, list(range(self.num_ranks)))

    def add(self, rank: int, event: MpiEvent) -> None:
        """Append ``event`` to ``rank``'s stream (events must be in time order)."""
        stream = self.events[rank]
        if stream and event.start_ns < stream[-1].end_ns:
            raise ValueError(
                f"rank {rank}: event {event.call} starts at {event.start_ns} before the "
                f"previous event ended at {stream[-1].end_ns}"
            )
        stream.append(event)

    def num_events(self) -> int:
        return sum(len(e) for e in self.events)

    def duration_ns(self, rank: int) -> int:
        """Traced duration of ``rank`` (end of last event)."""
        stream = self.events[rank]
        return stream[-1].end_ns if stream else 0

    def makespan_ns(self) -> int:
        """Longest per-rank traced duration."""
        return max((self.duration_ns(r) for r in range(self.num_ranks)), default=0)

    # ------------------------------------------------------------- serialisation
    def to_text(self) -> str:
        """Serialise to the compact line format (one event per line)."""
        out = io.StringIO()
        out.write(f"# liballprof trace: {self.name}\n")
        out.write(f"ranks {self.num_ranks}\n")
        for comm_id, members in sorted(self.communicators.items()):
            out.write(f"comm {comm_id} {' '.join(map(str, members))}\n")
        for rank, stream in enumerate(self.events):
            out.write(f"rank {rank} {len(stream)}\n")
            for e in stream:
                fields = [
                    e.call,
                    str(e.start_ns),
                    str(e.end_ns),
                    str(e.size),
                    "-" if e.peer is None else str(e.peer),
                    "-" if e.recv_peer is None else str(e.recv_peer),
                    str(e.recv_size),
                    str(e.root),
                    str(e.comm),
                    str(e.tag),
                    str(e.seq),
                ]
                out.write(" ".join(fields) + "\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "MpiTrace":
        """Parse a trace previously produced by :meth:`to_text`."""
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("ranks "):
            raise ValueError("not a liballprof trace (missing 'ranks' header)")
        num_ranks = int(lines[0].split()[1])
        trace = cls(num_ranks=num_ranks)
        trace.communicators = {}
        idx = 1
        while idx < len(lines) and lines[idx].startswith("comm "):
            parts = lines[idx].split()
            trace.communicators[int(parts[1])] = [int(x) for x in parts[2:]]
            idx += 1
        trace.communicators.setdefault(0, list(range(num_ranks)))
        while idx < len(lines):
            header = lines[idx].split()
            if header[0] != "rank":
                raise ValueError(f"expected 'rank' header, got {lines[idx]!r}")
            rank, count = int(header[1]), int(header[2])
            idx += 1
            for _ in range(count):
                f = lines[idx].split()
                trace.events[rank].append(
                    MpiEvent(
                        call=f[0],
                        start_ns=int(f[1]),
                        end_ns=int(f[2]),
                        size=int(f[3]),
                        peer=None if f[4] == "-" else int(f[4]),
                        recv_peer=None if f[5] == "-" else int(f[5]),
                        recv_size=int(f[6]),
                        root=int(f[7]),
                        comm=int(f[8]),
                        tag=int(f[9]),
                        seq=int(f[10]),
                    )
                )
                idx += 1
        return trace

    def to_file(self, path: str) -> int:
        """Write the text serialisation to ``path``; return the byte count."""
        data = self.to_text().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def from_file(cls, path: str) -> "MpiTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def size_bytes(self) -> int:
        """Size of the text serialisation (stand-in for the on-disk trace size)."""
        return len(self.to_text().encode("utf-8"))


class MpiTracer:
    """Records MPI calls for one application run (the PMPI interposer stand-in).

    Application models keep one per-rank clock and call :meth:`compute` /
    :meth:`record` in program order; the tracer assigns collective sequence
    numbers per communicator exactly like the real wrapper would by counting
    calls.
    """

    def __init__(self, num_ranks: int, name: str = "mpi-app") -> None:
        self.trace = MpiTrace(num_ranks=num_ranks, name=name)
        self._clock = [0] * num_ranks
        self._coll_seq: Dict[Tuple[int, int], int] = {}  # (comm, rank) -> next seq

    @property
    def num_ranks(self) -> int:
        return self.trace.num_ranks

    def define_communicator(self, comm: int, members: Sequence[int]) -> None:
        """Register a sub-communicator (comm 0 is always MPI_COMM_WORLD)."""
        self.trace.communicators[comm] = list(members)

    def compute(self, rank: int, duration_ns: int) -> None:
        """Advance ``rank``'s clock by ``duration_ns`` of local computation."""
        if duration_ns < 0:
            raise ValueError("duration must be non-negative")
        self._clock[rank] += int(duration_ns)

    def record(self, rank: int, call: str, duration_ns: int = 1000, **kwargs) -> MpiEvent:
        """Record an MPI call on ``rank`` lasting ``duration_ns``.

        Collective calls get an automatically increasing per-communicator
        sequence number so that the schedule generator can correlate them
        across ranks.
        """
        start = self._clock[rank]
        end = start + max(1, int(duration_ns))
        comm = kwargs.get("comm", 0)
        seq = 0
        if call in COLLECTIVE_CALLS:
            key = (comm, rank)
            seq = self._coll_seq.get(key, 0)
            self._coll_seq[key] = seq + 1
        event = MpiEvent(call=call, start_ns=start, end_ns=end, seq=seq, **kwargs)
        self.trace.add(rank, event)
        self._clock[rank] = end
        return event

    def finish(self) -> MpiTrace:
        """Return the completed trace."""
        return self.trace
