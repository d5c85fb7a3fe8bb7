"""Topology base classes: devices, links and route lookup.

Devices are integer ids.  Hosts occupy ``0 .. num_hosts - 1``; switches use
ids at and above ``num_hosts``.  Links are directed — a full-duplex cable is
modelled as two links — because each direction has its own output queue.

Routes are computed per host pair by the concrete topology classes and
returned as tuples of link ids; the packet backend attaches one queue per
link.  Regular topologies additionally provide *structural synthesis*
(:meth:`Topology.synthesized_routes`): candidates derived from coordinates
in closed form, so route lookup needs no per-pair precomputation at all.

Derived per-pair state (route tables, fault-filtered tables) lives in
bounded LRU caches — an unbounded memo is O(N²) in hosts and does not
survive datacenter-scale runs — and ECMP on a healthy fabric needs no table
at all: :meth:`Topology.pick_minimal` draws one candidate in closed form
(see docs/scaling.md).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # avoid a hard numpy dependency at import time
    import numpy as np

#: Default LRU budget (entries) for each per-pair route cache.  Sized so
#: every workload at ≤128 ranks is fully cached (128² = 16384 pairs) while a
#: 16k-endpoint run stays within a few hundred MB of table memory.
DEFAULT_ROUTE_CACHE_BUDGET = 16384


#: A pair's route table: its candidate routes, each a tuple of link ids.
Candidates = Tuple[Tuple[int, ...], ...]


#: Sentinel distinguishing "absent" from "cached None" in LruCache.get.
_MISS = object()


class LruCache:
    """Bounded least-recently-used mapping for per-pair route memos.

    A ``budget`` of 0 (or negative) disables eviction — the cache degrades
    to a plain memo, which is the pre-bounded behaviour and the A/B
    reference for determinism tests.  Hit/miss/eviction counters feed
    :meth:`Topology.route_cache_stats` and ultimately ``NetworkStats``.
    """

    __slots__ = ("budget", "hits", "misses", "evictions", "_data")

    def __init__(self, budget: int = DEFAULT_ROUTE_CACHE_BUDGET) -> None:
        self.budget = budget
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key, default=None):
        """Return the cached value (marking it most-recent) or ``default``.

        Lookup misses are detected with a private sentinel rather than by
        comparing against ``None``, so a key whose cached value is
        legitimately ``None`` still counts as a hit (and keeps its LRU
        recency) instead of being re-missed — and rebuilt — on every
        lookup.
        """
        data = self._data
        value = data.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return default
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert ``key`` as most-recent, evicting LRU entries over budget."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        budget = self.budget
        if budget > 0:
            while len(data) > budget:
                data.popitem(last=False)
                self.evictions += 1

    def set_budget(self, budget: int) -> None:
        """Change the budget, trimming LRU entries if the cache shrank."""
        self.budget = budget
        if budget > 0:
            data = self._data
            while len(data) > budget:
                data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


class FailedLinks:
    """Failed link ids, each with its number of causes.

    A link can be failed by several overlapping causes (a static failure
    plus a drain of either endpoint switch) and stays failed until every
    cause is undone.  The topology holds the truth in one of these and a
    control plane one per switch (its believed-failed set).

    >>> failed = FailedLinks()
    >>> failed.change(True, [3, 3, 5]), failed.change(True, [3])
    (True, False)
    >>> failed.change(False, [3]), 3 in failed, sorted(failed.key())
    (False, True, [3, 5])
    """

    __slots__ = ("_causes", "_key")

    def __init__(self) -> None:
        self._causes: Dict[int, int] = {}
        self._key: Optional[frozenset] = None

    def change(self, fail: bool, link_ids: Sequence[int]) -> bool:
        """Add (``fail``) or undo one cause of each link; return whether the set changed.

        Duplicates within one call count once, and undoing a healthy link
        is a no-op.
        """
        causes = self._causes
        changed = False
        for link_id in set(link_ids):
            count = causes.get(link_id, 0)
            if fail:
                causes[link_id] = count + 1
                changed |= count == 0
            elif count > 1:
                causes[link_id] = count - 1
            elif count == 1:
                del causes[link_id]
                changed = True
        if changed:
            self._key = None
        return changed

    def key(self) -> frozenset:
        """The failed link ids as a frozenset, the same object until the next change."""
        key = self._key
        if key is None:
            key = self._key = frozenset(self._causes)
        return key

    def copy(self) -> "FailedLinks":
        """An independent set with the same links and cause counts."""
        twin = FailedLinks()
        twin._causes = dict(self._causes)
        return twin

    def __contains__(self, link_id: int) -> bool:
        return link_id in self._causes

    def __bool__(self) -> bool:
        return bool(self._causes)


def pick_route(candidates: Sequence[Tuple[int, ...]], rng: "np.random.Generator") -> Tuple[int, ...]:
    """Uniform random choice among candidate routes.

    Consumes randomness only when there is a real choice (more than one
    candidate), which fixed-seed reproducibility tests rely on.
    """
    if len(candidates) == 1:
        return candidates[0]
    return candidates[int(rng.integers(len(candidates)))]


@dataclass(frozen=True)
class Link:
    """A directed link between two devices.

    Attributes
    ----------
    link_id:
        Dense index of this link (also indexes the packet backend's queues).
    src / dst:
        Device ids of the transmitting and receiving ends.
    bandwidth:
        Bytes per nanosecond.
    latency:
        Propagation delay in nanoseconds.
    name:
        Human-readable name used in statistics (e.g. ``"tor0->core1"``).
    """

    link_id: int
    src: int
    dst: int
    bandwidth: float
    latency: int
    name: str


class Topology:
    """Base class: a device/link graph plus host-to-host route lookup."""

    def __init__(self, num_hosts: int) -> None:
        if num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        self.num_hosts = num_hosts
        self.links: List[Link] = []
        self._out_links: Dict[int, List[int]] = {}
        self.num_devices = num_hosts
        # Structural synthesis toggle: when True (default) route tables are
        # built from :meth:`synthesized_routes`; when False, from the
        # enumeration reference :meth:`routes`.  Both must be bit-identical
        # (check_routes / tests/test_route_synthesis.py enforce it).
        self.use_synthesis = True
        # Lazily built per-pair candidate tables, all bounded LRU caches —
        # the per-pair key space is O(N²) in hosts.
        self.route_cache_budget = DEFAULT_ROUTE_CACHE_BUDGET
        self._route_tables = LruCache()
        # fault state (see repro.network.faults): the failed links with
        # their cause counts, a monotone epoch bumped on every change, and
        # fault-filtered tables keyed by (pair, failed set) — the truth's
        # or a control-plane view's.  An entry stays correct across epochs
        # (its key is the set), but the cache is cleared at each epoch
        # change so long convergence runs do not pile up believed sets no
        # switch holds any more.  ``faulty`` stays False for the lifetime of
        # a healthy topology, so the no-fault hot paths pay a single
        # attribute read.
        self.faulty = False
        self.failed = FailedLinks()
        self._fault_epoch = 0
        self._filtered_tables = LruCache()
        # the table caches feeding the hit/miss/eviction stats, and every
        # cache included in the configurable budget: subclasses append their
        # own per-pair memos (e.g. torus DOR path cache) to the latter
        self._stat_caches: List[LruCache] = [self._route_tables, self._filtered_tables]
        self._bounded_caches: List[LruCache] = list(self._stat_caches)

    # -- construction helpers (used by subclasses) ---------------------------
    def _new_device(self) -> int:
        dev = self.num_devices
        self.num_devices += 1
        return dev

    def _add_link(self, src: int, dst: int, bandwidth: float, latency: int, name: str) -> int:
        if bandwidth <= 0:
            raise ValueError(f"link {name}: bandwidth must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: latency must be non-negative")
        link_id = len(self.links)
        self.links.append(Link(link_id, src, dst, bandwidth, latency, name))
        self._out_links.setdefault(src, []).append(link_id)
        return link_id

    def _add_duplex(self, a: int, b: int, bandwidth: float, latency: int, name_ab: str, name_ba: str) -> Tuple[int, int]:
        return (
            self._add_link(a, b, bandwidth, latency, name_ab),
            self._add_link(b, a, bandwidth, latency, name_ba),
        )

    # -- queries -------------------------------------------------------------
    def is_host(self, device: int) -> bool:
        return 0 <= device < self.num_hosts

    def out_links(self, device: int) -> List[int]:
        """Link ids leaving ``device``."""
        return self._out_links.get(device, [])

    def routes(self, src_host: int, dst_host: int) -> Sequence[Tuple[int, ...]]:
        """All candidate routes (tuples of link ids) from ``src_host`` to ``dst_host``.

        Subclasses must override.  ``src_host == dst_host`` is invalid: GOAL
        validation rejects self-messages before they reach the backend.
        """
        raise NotImplementedError

    def synthesized_routes(self, src_host: int, dst_host: int) -> Sequence[Tuple[int, ...]]:
        """Candidate routes computed structurally from coordinates.

        Regular topologies (fat tree family, torus, dragonfly) override this
        with closed-form link-id arithmetic so a candidate set costs O(path
        length) to produce and nothing to store — the foundation of
        datacenter-scale route lookup.  The result must be *bit-identical*
        to :meth:`routes` (same candidates, same order); ``check_routes``
        and the differential suite enforce this.  The base implementation
        simply defers to :meth:`routes`.
        """
        return self.routes(src_host, dst_host)

    def route_table(self, src_host: int, dst_host: int) -> Candidates:
        """The pair's candidate routes as a tuple, lazily built and LRU-cached.

        The table is built from :meth:`synthesized_routes` (or from the
        :meth:`routes` enumeration reference when synthesis is disabled) on
        first use and kept in a bounded LRU cache — see
        :meth:`set_route_cache_budget`.  Candidate order is preserved
        exactly, so strategies that tie-break with a shared RNG consume the
        same random stream whether they read the cache or call
        :meth:`routes` directly, and regardless of evictions.
        """
        key = (src_host, dst_host)
        table = self._route_tables.get(key)
        if table is None:
            source = self.synthesized_routes if self.use_synthesis else self.routes
            table = tuple(source(src_host, dst_host))
            self._route_tables.put(key, table)
        return table

    def pick_minimal(self, src_host: int, dst_host: int, rng: "np.random.Generator") -> Tuple[int, ...]:
        """ECMP draw: one uniformly chosen candidate of the pair's *full* set.

        Exactly ``pick_route(route_table(src, dst), rng)`` — same route,
        same randomness (one ``integers(n)`` iff ``n > 1``) — which is all
        the base implementation does.  The draw is over every candidate,
        failed links or not: fault filtering is the caller's (Valiant legs
        are filtered as whole detours; :class:`~repro.network.routing.
        MinimalRouting` calls this only on a healthy fabric with synthesis
        on and otherwise reads the filtered tables).  The fat-tree family
        overrides it with the closed form of the drawn candidate alone, so
        a healthy fat tree builds and caches no table to start a flow or to
        draw a Valiant leg.
        """
        return pick_route(self.route_table(src_host, dst_host), rng)

    def link_delays(self, size: int = 0) -> List[int]:
        """Per-link delay (ns) of one ``size``-byte packet, indexed by link id.

        Propagation latency plus the serialisation time of ``size`` bytes
        (none for 0).  Backends build these once per run, after static
        degradations, and sum them along a route instead of memoizing
        per-route totals.
        """
        if not size:
            return [link.latency for link in self.links]
        return [
            link.latency + max(1, int(round(size / link.bandwidth)))
            for link in self.links
        ]

    def min_link_latency(self) -> int:
        """Minimum propagation latency (ns) over every link of the fabric.

        A property of the topology alone — independent of any shard
        partition — which is what makes it a safe default cadence for the
        sharded engine's load snapshots (shard-count-invariant results).
        """
        return min(link.latency for link in self.links)

    # -- cache management (see docs/scaling.md) ------------------------------
    def set_route_cache_budget(self, budget: int) -> None:
        """Bound every per-pair route cache to ``budget`` entries (0 = unbounded).

        Applies to the route/alive/view table caches and any
        subclass-registered per-pair memo (e.g. the torus DOR path cache).
        Shrinking trims least-recently-used entries immediately.  Eviction
        never changes results — evicted tables are rebuilt bit-identically
        on the next lookup.
        """
        self.route_cache_budget = budget
        for cache in self._bounded_caches:
            cache.set_budget(budget)

    def route_cache_stats(self) -> Dict[str, int]:
        """Aggregate hit/miss/eviction counters across the route-table caches.

        ``entries`` counts live entries across *all* bounded caches (the
        memory-relevant number); hits/misses/evictions cover the two
        route-table caches: the one behind :meth:`route_table` and the
        fault-filtered one behind :meth:`alive_table` and :meth:`view_table`.
        """
        return {
            "hits": sum(c.hits for c in self._stat_caches),
            "misses": sum(c.misses for c in self._stat_caches),
            "evictions": sum(c.evictions for c in self._stat_caches),
            "entries": sum(len(c) for c in self._bounded_caches),
        }

    # -- fault state (see repro.network.faults) ------------------------------
    def fail_links(self, link_ids: Sequence[int]) -> None:
        """Mark ``link_ids`` failed: routing stops offering routes over them.

        Failures are reference-counted per link (see :class:`FailedLinks`),
        so a link failed by two overlapping causes only comes back up once
        both are restored.
        """
        if self.failed.change(True, link_ids):
            self._fault_change()

    def restore_links(self, link_ids: Sequence[int]) -> None:
        """Undo one failure cause of each link (no-op for healthy links)."""
        if self.failed.change(False, link_ids):
            self._fault_change()

    def _fault_change(self) -> None:
        self._fault_epoch += 1
        self.faulty = bool(self.failed)
        self._filtered_tables.clear()

    @property
    def failed_links(self) -> frozenset:
        """Ids of the currently failed links (one object until the next change)."""
        return self.failed.key()

    def alive_table(self, src_host: int, dst_host: int) -> Candidates:
        """Like :meth:`route_table`, filtered to candidates that survive faults.

        Returns the full table while the fabric is healthy.  With failed
        links, a filtered table (candidate order preserved) is built lazily
        per pair and LRU-cached; every fault-state change evicts the whole
        cache (see :meth:`_fault_change`) — the "cached-route invalidation"
        the packet backend relies on.  Raises
        :class:`~repro.network.faults.NetworkPartitionError` when no
        candidate survives.
        """
        full = self.route_table(src_host, dst_host)
        if not self.faulty:
            return full
        table = self._filtered(src_host, dst_host, full, self.failed.key())
        if table is None:
            raise self._partition_error(src_host, dst_host, full)
        return table

    def view_table(self, src_host: int, dst_host: int, believed_failed: frozenset) -> Candidates:
        """Like :meth:`alive_table`, filtered by a *believed*-failed link set.

        Used by the control plane (see :mod:`repro.network.control_plane`):
        a source whose first-hop switch holds a stale routing view selects
        routes as if ``believed_failed`` were the truth — the selected route
        may well cross a link that is actually down (that packet black-holes
        at the stale switch).  A view that believes the pair partitioned
        falls back to the truth-alive table, modelling a switch that keeps
        its last usable route rather than dropping at the source.
        """
        full = self.route_table(src_host, dst_host)
        if not believed_failed:
            return full
        table = self._filtered(src_host, dst_host, full, believed_failed)
        return self.alive_table(src_host, dst_host) if table is None else table

    def _filtered(
        self, src_host: int, dst_host: int, full: Candidates, failed_key: frozenset
    ) -> Optional[Candidates]:
        """``full`` without the candidates crossing ``failed_key``, or ``None``.

        One LRU cache keyed by ``(src, dst, failed set)`` serves the truth
        and every view; an empty result is not cached.
        """
        key = (src_host, dst_host, failed_key)
        table = self._filtered_tables.get(key)
        if table is not None:
            return table
        table = tuple(
            route
            for route in full
            if not any(link in failed_key for link in route)
        )
        if not table:
            return None
        if len(table) == len(full):
            table = full
        self._filtered_tables.put(key, table)
        return table

    def _partition_error(self, src_host: int, dst_host: int, full: Candidates):
        """Build the :class:`NetworkPartitionError` for a fully dead pair.

        At datacenter scale "all N candidates cross failed links" is not
        actionable by itself, so the message also carries the fault epoch
        and the surviving-candidate count per hop prefix — how many
        candidates are still alive through their first ``k`` hops — which
        localizes the cut (e.g. all candidates alive through 1 hop but dead
        at 2 means the uplink tier, not the NIC, is severed).  Failed-link
        names are capped to keep 16k-host reports readable.
        """
        from repro.network.faults import NetworkPartitionError

        failed = self.failed.key()
        max_hops = max(len(route) for route in full)
        prefix_parts = []
        for k in range(1, max_hops + 1):
            surviving = sum(
                1
                for route in full
                if not any(link in failed for link in route[:k])
            )
            prefix_parts.append(f"{surviving} alive through hop {k}")
        names = sorted(self.links[l].name for l in failed)
        shown = names[:12]
        more = len(names) - len(shown)
        suffix = f", +{more} more" if more > 0 else ""
        return NetworkPartitionError(
            f"no surviving route from host {src_host} to host {dst_host} "
            f"at fault epoch {self._fault_epoch}: "
            f"all {len(full)} candidate route(s) cross failed links; "
            f"surviving candidates by hop prefix: {'; '.join(prefix_parts)} "
            f"(failed: {', '.join(shown)}{suffix})"
        )

    def degrade_link(self, link_id: int, capacity_factor: float) -> None:
        """Scale a link's bandwidth by ``capacity_factor`` (static degradation).

        Must be applied before backends derive per-link state (queues, route
        tables with latency sums are unaffected — only bandwidth changes);
        both backends apply degradations during ``setup`` right after the
        topology is built.
        """
        if not (0.0 < capacity_factor <= 1.0):
            raise ValueError(
                f"capacity factor must be in (0, 1], got {capacity_factor}"
            )
        import dataclasses

        link = self.links[link_id]
        self.links[link_id] = dataclasses.replace(
            link, bandwidth=link.bandwidth * capacity_factor
        )

    def valiant_routes(
        self, src_host: int, dst_host: int, rng: "np.random.Generator", count: int = 4
    ) -> Sequence[Tuple[int, ...]]:
        """Non-minimal (Valiant) candidate routes via random intermediates.

        The base implementation joins two ECMP draws (:meth:`pick_minimal`,
        over each leg's full candidate set) through up to ``count`` random
        intermediate *hosts*; topologies whose structure offers a natural
        intermediate switch (torus routers, Slim Fly routers) override this
        to avoid descending to a host NIC mid-path.
        Returns an empty sequence when no intermediate exists (fewer than
        three hosts), in which case callers fall back to minimal routing.
        """
        if src_host == dst_host:
            raise ValueError("no route from a host to itself")
        if self.num_hosts <= 2:
            return ()
        candidates: List[Tuple[int, ...]] = []
        for _ in range(count):
            via = int(rng.integers(self.num_hosts))
            while via == src_host or via == dst_host:
                via = int(rng.integers(self.num_hosts))
            leg1 = self.pick_minimal(src_host, via, rng)
            leg2 = self.pick_minimal(via, dst_host, rng)
            candidates.append(leg1 + leg2)
        return tuple(candidates)

    def _valiant_via_routers(
        self,
        src_host: int,
        dst_host: int,
        rng: "np.random.Generator",
        count: int,
        num_routers: int,
        router_of,
        router_paths,
    ) -> Candidates:
        """Compose Valiant candidates through random intermediate *routers*.

        Shared by switch-centric topologies (torus, Slim Fly) that expose a
        router-level path function.  Requires the subclass's ``_host_up`` /
        ``_host_down`` link maps; ``router_of(host)`` names the attachment
        router and ``router_paths(r1, r2)`` returns the minimal router-level
        path candidates between two routers.
        """
        if src_host == dst_host:
            raise ValueError("no route from a host to itself")
        r1 = router_of(src_host)
        r2 = router_of(dst_host)
        up = self._host_up[src_host]
        down = self._host_down[dst_host]
        candidates: List[Tuple[int, ...]] = []
        for _ in range(count):
            via = int(rng.integers(num_routers))
            while via == r1 or via == r2:
                via = int(rng.integers(num_routers))
            leg1 = pick_route(router_paths(r1, via), rng)
            leg2 = pick_route(router_paths(via, r2), rng)
            candidates.append((up,) + leg1 + leg2 + (down,))
        return tuple(candidates)

    def attachment(self, host: int) -> int:
        """Device id of the switch ``host`` injects into (its first-hop switch)."""
        if not self.is_host(host):
            raise ValueError(f"{host} is not a host")
        out = self.out_links(host)
        if not out:
            raise ValueError(f"host {host} has no uplink")
        return self.links[out[0]].dst

    def host_groups(self) -> List[List[int]]:
        """Hosts grouped by first-hop switch, in switch-id order.

        This is the locality unit placement strategies should pack jobs
        into: traffic between hosts of one group never leaves their shared
        switch.
        """
        groups: Dict[int, List[int]] = {}
        for h in range(self.num_hosts):
            groups.setdefault(self.attachment(h), []).append(h)
        return [groups[sw] for sw in sorted(groups)]

    def min_path_latency(self, src_host: int, dst_host: int) -> int:
        """Propagation latency along the first candidate route (ns)."""
        links = self.links
        return sum(links[l].latency for l in self.route_table(src_host, dst_host)[0])

    def describe(self) -> Dict[str, object]:
        """Summary of the topology (device/link counts) for reports."""
        return {
            "class": type(self).__name__,
            "num_hosts": self.num_hosts,
            "num_devices": self.num_devices,
            "num_links": len(self.links),
        }

    # -- invariants (used by tests) --------------------------------------------
    def validate_route(self, route: Tuple[int, ...], src: int, dst: int) -> None:
        """Assert one route starts at ``src``, ends at ``dst`` and is contiguous."""
        if not route:
            raise AssertionError(f"empty route {src}->{dst}")
        if self.links[route[0]].src != src:
            raise AssertionError(f"route {src}->{dst} does not start at source")
        if self.links[route[-1]].dst != dst:
            raise AssertionError(f"route {src}->{dst} does not end at destination")
        for a, b in zip(route, route[1:]):
            if self.links[a].dst != self.links[b].src:
                raise AssertionError(f"route {src}->{dst} is not contiguous at links {a},{b}")

    def check_routes(self) -> None:
        """Verify the structural route invariants of the whole topology.

        Every candidate route must start at the source host, end at the
        destination host, and chain contiguously through the link graph.
        Structurally synthesized candidates (:meth:`synthesized_routes`)
        must be bit-identical — same tuples, same order — to the
        :meth:`routes` enumeration reference.  Candidate sets must
        additionally be *reverse-symmetric*:

        * every hop of every candidate must have a reverse-direction twin
          link, so the mirrored device path is realizable (cables are full
          duplex — reachability, and therefore fault behaviour, cannot
          silently differ by direction),
        * ``dst -> src`` must offer as many candidates as ``src -> dst``,
          with the same multiset of hop counts (dimension-order tie-breaks
          may mirror a path onto a rotated twin, so exact path-set equality
          is deliberately not required).

        Violations raise ``AssertionError`` naming the offending
        ``(src, dst, route)`` (or the asymmetric pair).
        """
        reverse_exists = {(link.src, link.dst) for link in self.links}
        for src in range(self.num_hosts):
            for dst in range(self.num_hosts):
                if src == dst:
                    continue
                forward = self.routes(src, dst)
                synthesized = tuple(self.synthesized_routes(src, dst))
                if synthesized != tuple(forward):
                    raise AssertionError(
                        f"synthesized routes diverge from the enumeration "
                        f"reference for (src={src}, dst={dst}): "
                        f"synthesized={synthesized} enumerated={tuple(forward)}"
                    )
                for route in forward:
                    self.validate_route(route, src, dst)
                    for link_id in route:
                        link = self.links[link_id]
                        if (link.dst, link.src) not in reverse_exists:
                            raise AssertionError(
                                f"route candidates are not reverse-symmetric: "
                                f"(src={src}, dst={dst}, route={route}) traverses "
                                f"link {link_id} ({link.name}) which has no "
                                f"reverse-direction twin {link.dst}->{link.src}"
                            )
                backward = self.routes(dst, src)
                if sorted(len(r) for r in forward) != sorted(len(r) for r in backward):
                    raise AssertionError(
                        f"route candidates are not reverse-symmetric: "
                        f"(src={src}, dst={dst}) offers "
                        f"{len(forward)} candidate(s) with hop counts "
                        f"{sorted(len(r) for r in forward)} but ({dst}, {src}) offers "
                        f"{len(backward)} with {sorted(len(r) for r in backward)} "
                        f"(first offending route: {forward[0]})"
                    )
