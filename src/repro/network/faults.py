"""Fault-injection specifications: degraded fabrics and timed failure events.

Real AI/HPC clusters rarely run on a pristine fabric: links flap, switches
are drained for maintenance, and reroutes leave capacity degraded for
minutes.  This module describes such scenarios declaratively — a
:class:`FaultSchedule` carried on
:attr:`repro.network.config.SimulationConfig.faults` — and both backends
honor it:

* the **packet backend** masks failed links out of every routing decision,
  forces in-flight packets onto surviving candidate routes at their next
  forwarding hop, and re-picks the cached route of every live flow when the
  fabric changes (see ``PacketBackend._apply_fault``),
* the **LogGOPS backend** applies a degraded-capacity latency factor: the
  per-byte serialisation term ``size * G`` is inflated by the reciprocal of
  the surviving fraction of fabric capacity, and — in topology-aware mode —
  per-message routes are filtered to alive links.

A schedule combines *static* degradation (links failed or running at reduced
bandwidth from time 0, or a seeded random failure rate) with *timed* events
(:data:`LINK_DOWN` / :data:`LINK_UP` / :data:`SWITCH_DRAIN` /
:data:`SWITCH_UNDRAIN`).  An **empty** schedule is guaranteed to leave both
backends bit-identical to a run without any fault machinery — the fault
paths are gated out entirely (``tests/test_faults.py`` locks this in).

Links are addressed by name (e.g. ``"tor0->core1"``, stable across builds of
the same topology) or by dense link id.  Random failures draw whole duplex
*cables* (both directions fail together) and only from switch-to-switch
cables: a host's NIC cable failing is indistinguishable from the host being
down, which is a scheduling problem, not a routing one.  Random draws are
*nested*: for a fixed seed, the cables failed at rate ``r1 < r2`` are a
subset of those failed at ``r2``, so degradation curves over a rate axis are
monotone by construction rather than by luck.

Determinism: event application order is part of the schedule (ties resolve
in declaration order), random draws depend only on ``failure_seed``, and all
timed events are scheduled on the backend's own event queue before any GOAL
operation is issued.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

if TYPE_CHECKING:  # avoid importing topology (and numpy) at module import
    from repro.network.topology.base import Topology

#: Timed fault event kinds.
LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DRAIN = "switch_drain"
SWITCH_UNDRAIN = "switch_undrain"

_EVENT_KINDS = (LINK_DOWN, LINK_UP, SWITCH_DRAIN, SWITCH_UNDRAIN)

#: A link selector: dense link id, or link name as reported by ``Link.name``.
LinkRef = Union[int, str]


class NetworkPartitionError(RuntimeError):
    """No surviving route between two hosts (or no surviving capacity).

    Raised by :meth:`repro.network.topology.base.Topology.alive_table` when a
    fault schedule disconnects a communicating pair, and by the LogGOPS
    backend when the surviving fabric capacity reaches zero.  The message
    names the pair, the fault epoch, the surviving-candidate count per hop
    prefix (how many candidates are still alive through their first ``k``
    hops — localizing the cut to a tier) and the failed links (capped at
    datacenter scale), so degraded-fabric experiments fail loudly and
    actionably instead of deadlocking.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: at ``time_ns``, apply ``kind`` to ``target``.

    ``target`` is a link id or link name for :data:`LINK_DOWN` /
    :data:`LINK_UP`, and a switch device id for :data:`SWITCH_DRAIN` /
    :data:`SWITCH_UNDRAIN` (draining fails every link into and out of the
    switch; undraining restores them).
    """

    time_ns: int
    kind: str
    target: LinkRef

    def __post_init__(self) -> None:
        if self.time_ns < 0:
            raise ValueError(f"fault event time must be non-negative, got {self.time_ns}")
        if self.kind not in _EVENT_KINDS:
            raise ValueError(
                f"unknown fault event kind {self.kind!r}; expected one of {_EVENT_KINDS}"
            )
        if self.kind in (SWITCH_DRAIN, SWITCH_UNDRAIN) and not isinstance(self.target, int):
            raise ValueError(
                f"{self.kind} targets a switch device id (int), got {self.target!r}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """Declarative description of an imperfect fabric.

    Attributes
    ----------
    events:
        Timed :class:`FaultEvent` records (need not be sorted; ties apply in
        declaration order).
    failed_links:
        Links down from time 0 (each a link id or link name).
    degraded_links:
        Static ``(link, capacity_factor)`` pairs: the link runs at
        ``factor`` times its configured bandwidth for the whole run
        (``0 < factor <= 1``).
    link_failure_rate:
        Fraction of switch-to-switch duplex cables failed from time 0,
        drawn with ``failure_seed``.  Draws are nested across rates for a
        fixed seed (see module docstring).
    failure_seed:
        Seed of the random cable draw.
    """

    events: Tuple[FaultEvent, ...] = ()
    failed_links: Tuple[LinkRef, ...] = ()
    degraded_links: Tuple[Tuple[LinkRef, float], ...] = ()
    link_failure_rate: float = 0.0
    failure_seed: int = 0

    def __post_init__(self) -> None:
        # normalise list inputs so callers can pass plain lists
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "failed_links", tuple(self.failed_links))
        object.__setattr__(
            self, "degraded_links", tuple(tuple(pair) for pair in self.degraded_links)
        )
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise ValueError(f"events must be FaultEvent records, got {ev!r}")
        for pair in self.degraded_links:
            if len(pair) != 2:
                raise ValueError(f"degraded_links entries are (link, factor) pairs, got {pair!r}")
            _, factor = pair
            if not (0.0 < float(factor) <= 1.0):
                raise ValueError(
                    f"degraded-link capacity factor must be in (0, 1], got {factor!r}"
                )
        if not (0.0 <= self.link_failure_rate < 1.0):
            raise ValueError(
                f"link_failure_rate must be in [0, 1), got {self.link_failure_rate}"
            )
        # Contradictory timed sequences would silently drift the topology's
        # per-link failure reference counts into undefined alive-state (a
        # link "downed" twice needs two link_ups; a link_up on a healthy
        # link is a no-op that masks a schedule bug).  Reject them here, in
        # application order, best-effort at the declared-target level: a
        # link addressed once by name and once by id cannot be unified
        # without a topology and is tracked per spelling.
        link_down = {ref: True for ref in self.failed_links}
        drained: Dict[int, bool] = {}
        for ev in self.sorted_events():
            if ev.kind == LINK_DOWN:
                if link_down.get(ev.target):
                    raise ValueError(
                        f"contradictory fault schedule: {LINK_DOWN} at "
                        f"t={ev.time_ns} targets link {ev.target!r} which is "
                        f"already down at that time (schedule a {LINK_UP} for "
                        f"it first, or drop the duplicate event)"
                    )
                link_down[ev.target] = True
            elif ev.kind == LINK_UP:
                if not link_down.get(ev.target):
                    raise ValueError(
                        f"contradictory fault schedule: {LINK_UP} at "
                        f"t={ev.time_ns} targets link {ev.target!r} which is "
                        f"not down at that time (add a prior {LINK_DOWN}, or "
                        f"list it in failed_links)"
                    )
                link_down[ev.target] = False
            elif ev.kind == SWITCH_DRAIN:
                if drained.get(ev.target):
                    raise ValueError(
                        f"contradictory fault schedule: {SWITCH_DRAIN} at "
                        f"t={ev.time_ns} targets switch {ev.target} which is "
                        f"already drained at that time (schedule a "
                        f"{SWITCH_UNDRAIN} for it first)"
                    )
                drained[ev.target] = True
            elif ev.kind == SWITCH_UNDRAIN:
                if not drained.get(ev.target):
                    raise ValueError(
                        f"contradictory fault schedule: {SWITCH_UNDRAIN} at "
                        f"t={ev.time_ns} targets switch {ev.target} which is "
                        f"not drained at that time (add a prior "
                        f"{SWITCH_DRAIN})"
                    )
                drained[ev.target] = False

    def is_empty(self) -> bool:
        """True when the schedule injects nothing (the healthy-fabric case)."""
        return (
            not self.events
            and not self.failed_links
            and not self.degraded_links
            and self.link_failure_rate == 0.0
        )

    def __bool__(self) -> bool:
        return not self.is_empty()

    def sorted_events(self) -> Tuple[FaultEvent, ...]:
        """Events in application order (time, then declaration order)."""
        return tuple(sorted(self.events, key=lambda ev: ev.time_ns))

    # -- resolution against a concrete topology ------------------------------
    def static_failed_ids(self, topology: "Topology") -> List[int]:
        """Link ids down from time 0: explicit failures plus random cables."""
        ids: List[int] = []
        seen = set()
        for ref in self.failed_links:
            for link_id in resolve_link_ids(topology, ref):
                if link_id not in seen:
                    seen.add(link_id)
                    ids.append(link_id)
        for link_id in random_failed_link_ids(
            topology, self.link_failure_rate, self.failure_seed
        ):
            if link_id not in seen:
                seen.add(link_id)
                ids.append(link_id)
        return ids

    def static_degradations(self, topology: "Topology") -> Dict[int, float]:
        """Resolved ``{link id: capacity factor}`` of the static degradations."""
        out: Dict[int, float] = {}
        for ref, factor in self.degraded_links:
            for link_id in resolve_link_ids(topology, ref):
                out[link_id] = float(factor)
        return out

    def resolved_events(self, topology: "Topology") -> List[Tuple[int, str, List[int]]]:
        """Timed events as ``(time_ns, kind, link ids)`` in application order."""
        out: List[Tuple[int, str, List[int]]] = []
        for ev in self.sorted_events():
            if ev.kind in (SWITCH_DRAIN, SWITCH_UNDRAIN):
                ids = switch_link_ids(topology, int(ev.target))
            else:
                ids = resolve_link_ids(topology, ev.target)
            out.append((ev.time_ns, ev.kind, ids))
        return out


def resolve_link_ids(topology: "Topology", ref: LinkRef) -> List[int]:
    """Resolve a link id or link name to concrete link ids.

    Raises ``ValueError`` with the valid name inventory when the reference
    matches nothing, so CLI and config errors stay actionable.
    """
    links = topology.links
    if isinstance(ref, int):
        if not (0 <= ref < len(links)):
            raise ValueError(
                f"link id {ref} out of range (topology has {len(links)} links)"
            )
        return [ref]
    matches = [link.link_id for link in links if link.name == ref]
    if not matches:
        sample = ", ".join(link.name for link in links[: min(8, len(links))])
        raise ValueError(
            f"no link named {ref!r} in this topology "
            f"(examples of valid names: {sample}{', ...' if len(links) > 8 else ''})"
        )
    return matches


def switch_link_ids(topology: "Topology", device: int) -> List[int]:
    """Every link id into or out of ``device`` (the drain set of a switch)."""
    if not (0 <= device < topology.num_devices):
        raise ValueError(
            f"device {device} out of range (topology has {topology.num_devices} devices)"
        )
    if topology.is_host(device):
        raise ValueError(
            f"device {device} is a host, not a switch; drain targets switches "
            f"(switch ids start at {topology.num_hosts})"
        )
    return [
        link.link_id
        for link in topology.links
        if link.src == device or link.dst == device
    ]


def fabric_cables(topology: "Topology") -> List[Tuple[int, ...]]:
    """Switch-to-switch duplex cables as tuples of link ids.

    Links are grouped by their unordered ``{src, dst}`` device pair; cables
    touching a host are excluded (see module docstring).  Order is
    deterministic: by the lowest link id of each cable.
    """
    groups: Dict[Tuple[int, int], List[int]] = {}
    for link in topology.links:
        if topology.is_host(link.src) or topology.is_host(link.dst):
            continue
        key = (min(link.src, link.dst), max(link.src, link.dst))
        groups.setdefault(key, []).append(link.link_id)
    return sorted((tuple(sorted(ids)) for ids in groups.values()), key=lambda c: c[0])


def random_failed_link_ids(topology: "Topology", rate: float, seed: int) -> List[int]:
    """Link ids of the cables failed by a random ``rate`` draw.

    The seeded permutation of the eligible cables is computed once and a
    ``rate`` fraction of it (rounded down) is taken as a *prefix*, so a
    higher rate with the same seed always fails a superset of the cables a
    lower rate fails.
    """
    if rate <= 0.0:
        return []
    import numpy as np

    cables = fabric_cables(topology)
    if not cables:
        return []
    count = int(rate * len(cables))
    if count == 0:
        return []
    order = np.random.default_rng(seed).permutation(len(cables))
    ids: List[int] = []
    for idx in order[:count]:
        ids.extend(cables[int(idx)])
    return ids


__all__ = [
    "LINK_DOWN",
    "LINK_UP",
    "SWITCH_DRAIN",
    "SWITCH_UNDRAIN",
    "FaultEvent",
    "FaultSchedule",
    "NetworkPartitionError",
    "fabric_cables",
    "random_failed_link_ids",
    "resolve_link_ids",
    "switch_link_ids",
]
