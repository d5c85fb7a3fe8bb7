"""GOAL task (vertex) definitions.

A GOAL schedule is a DAG per rank.  Each vertex is an :class:`Op` of one of
three kinds (paper §2.1):

``send``
    Transmit ``size`` bytes to rank ``peer`` with message ``tag``.
``recv``
    Receive ``size`` bytes from rank ``peer`` with message ``tag``.
``calc``
    Local computation costing ``size`` nanoseconds (the unit follows
    LogGOPSim: calc arguments are time, not bytes).

Each op may be pinned to a *compute stream* (``cpu``); ops on distinct
streams may overlap in time even within one rank, which is how GOAL models
concurrent CUDA streams or OpenMP sections.  Ops default to stream 0.

A schedule does not store ``Op`` objects: :class:`~repro.goal.schedule.RankSchedule`
keeps one array per field, and an ``Op`` is the value handed in and out at its
API (``add_op``, ``rank.ops[i]``).  An ``Op`` is immutable: assigning a field
raises ``AttributeError``, so an op read from ``rank.ops`` cannot be mistaken
for a handle on the schedule.  Every field is an unsigned 64-bit integer, the
range of the binary format.
"""
from __future__ import annotations

import enum
from operator import index as _index
from typing import Optional, Tuple

_set_slot = object.__setattr__


class OpType(enum.IntEnum):
    """Kind of a GOAL task."""

    SEND = 0
    RECV = 1
    CALC = 2

    def short(self) -> str:
        """Return the lowercase keyword used in the textual GOAL format."""
        return _SHORT_NAMES[self]


_SHORT_NAMES = {OpType.SEND: "send", OpType.RECV: "recv", OpType.CALC: "calc"}
# Enum members as module constants (also for the codecs and the validator):
# an ``OpType.X`` lookup goes through the enum metaclass, which is measurable
# on per-op paths.
_SEND, _RECV, _CALC = OpType.SEND, OpType.RECV, OpType.CALC

#: Every op field satisfies ``0 <= value < VALUE_LIMIT``.
VALUE_LIMIT = 1 << 64


def checked_value(what: str, value: object) -> int:
    """Return ``value`` as a plain int in the 64-bit unsigned range, or raise naming ``what``."""
    try:
        value = _index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value >= VALUE_LIMIT:
        raise ValueError(f"{what} {value} does not fit 64 bits (must be < 2**64)")
    return value


def checked_fields(
    kind: object, size: object, peer: object, tag: object, cpu: object
) -> Tuple[OpType, int, Optional[int], int, int]:
    """Validate one op's fields and return them normalised.

    ``kind`` becomes an :class:`OpType` (``ValueError`` for an unknown one),
    a ``calc`` must have ``peer is None`` and a ``send``/``recv`` must not, and
    every number must be integral (``operator.index``, so numpy integers pass
    and ``3.7`` does not) within ``0 <= value < 2**64``.
    """
    kind = OpType(kind)
    if kind is _CALC:
        if peer is not None:
            raise ValueError("calc ops must not specify a peer")
    elif peer is None:
        raise ValueError(f"{kind.short()} requires a peer rank")
    else:
        peer = checked_value("peer rank", peer)
    return (
        kind,
        checked_value("op size", size),
        peer,
        checked_value("tag", tag),
        checked_value("cpu (compute stream)", cpu),
    )


class Op:
    """A single GOAL task (a vertex of a rank's dependency DAG).

    Parameters
    ----------
    kind:
        One of :class:`OpType` (or its integer value).
    size:
        Bytes for ``send``/``recv``; nanoseconds of computation for ``calc``.
        A ``calc 0`` is a *dummy* vertex used purely to express
        synchronisation (e.g. joining CUDA streams).
    peer:
        Destination rank (for ``send``) or source rank (for ``recv``).
        ``None`` for ``calc``.
    tag:
        Message tag used to match sends with receives.  Defaults to 0.
    cpu:
        Compute-stream index this op executes on.  Defaults to 0.

    All numbers must be integers in ``0 <= value < 2**64``; anything else is
    refused here with a ``ValueError`` (``TypeError`` for a non-integer)
    naming the field.  The fields are read-only: build a new ``Op`` instead.
    """

    __slots__ = ("kind", "size", "peer", "tag", "cpu")

    def __init__(
        self,
        kind: OpType,
        size: int,
        peer: Optional[int] = None,
        tag: int = 0,
        cpu: int = 0,
    ) -> None:
        for name, value in zip(self.__slots__, checked_fields(kind, size, peer, tag, cpu)):
            _set_slot(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Op is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Op is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Op, (self.kind, self.size, self.peer, self.tag, self.cpu)

    # -- constructors -----------------------------------------------------
    @classmethod
    def send(cls, size: int, dst: int, tag: int = 0, cpu: int = 0) -> "Op":
        """Create a ``send`` op of ``size`` bytes to rank ``dst``."""
        return cls(_SEND, size, peer=dst, tag=tag, cpu=cpu)

    @classmethod
    def recv(cls, size: int, src: int, tag: int = 0, cpu: int = 0) -> "Op":
        """Create a ``recv`` op of ``size`` bytes from rank ``src``."""
        return cls(_RECV, size, peer=src, tag=tag, cpu=cpu)

    @classmethod
    def calc(cls, duration_ns: int, cpu: int = 0) -> "Op":
        """Create a ``calc`` op costing ``duration_ns`` nanoseconds."""
        return cls(_CALC, duration_ns, peer=None, cpu=cpu)

    # -- predicates --------------------------------------------------------
    @property
    def is_send(self) -> bool:
        return self.kind == OpType.SEND

    @property
    def is_recv(self) -> bool:
        return self.kind == OpType.RECV

    @property
    def is_calc(self) -> bool:
        return self.kind == OpType.CALC

    # -- dunder ------------------------------------------------------------
    def __repr__(self) -> str:
        if self.kind == OpType.CALC:
            core = f"calc {self.size}"
        elif self.kind == OpType.SEND:
            core = f"send {self.size}b to {self.peer} tag {self.tag}"
        else:
            core = f"recv {self.size}b from {self.peer} tag {self.tag}"
        extra = f" cpu {self.cpu}" if self.cpu else ""
        return f"Op({core}{extra})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.size == other.size
            and self.peer == other.peer
            and self.tag == other.tag
            and self.cpu == other.cpu
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.size, self.peer, self.tag, self.cpu))
