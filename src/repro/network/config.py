"""Simulation configuration objects.

A single :class:`SimulationConfig` carries every knob both backends
understand: LogGOPS parameters for the message-level backend, and link/queue/
congestion-control parameters for the packet-level backend, plus the topology
description shared by both.

Times are integer nanoseconds, sizes are bytes and bandwidths are expressed
in bytes per nanosecond (1 B/ns = 1 GB/s); ``G`` and ``O`` are ns per byte.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.network.faults import FaultSchedule


@dataclass(frozen=True)
class LogGOPSParams:
    """Parameters of the LogGOPS network model (all times in ns).

    Attributes
    ----------
    L:
        End-to-end wire latency.
    o:
        CPU overhead charged per message at the sender and at the receiver.
    g:
        Inter-message gap enforced at the NIC (minimum spacing between
        message injections).
    G:
        Gap per byte (inverse bandwidth) in ns/byte; 0.04 ns/B = 25 GB/s.
    O:
        CPU overhead per byte in ns/byte.
    S:
        Eager/rendezvous threshold in bytes: messages strictly larger than
        ``S`` use the rendezvous protocol (transfer cannot begin before the
        matching receive is posted).

    The default values are the AI-cluster parameters used in the paper's §5.2
    (Alps / GH200 with Slingshot); :meth:`hpc_cluster` returns the §5.3
    values measured with Netgauge on the CSCS test-bed.
    """

    L: int = 3700
    o: int = 200
    g: int = 5
    G: float = 0.04
    O: float = 0.0
    S: int = 0

    def __post_init__(self) -> None:
        for name in ("L", "o", "g", "G", "O", "S"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        # L, g and S enter the NIC recurrence and the event times as they
        # are: a fraction would leave float clocks behind
        for name in ("L", "g", "S"):
            value = getattr(self, name)
            if value != int(value):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def ai_cluster(cls) -> "LogGOPSParams":
        """Parameters estimated for the Alps GH200 nodes (paper §5.2)."""
        return cls(L=3700, o=200, g=5, G=0.04, O=0.0, S=0)

    @classmethod
    def hpc_cluster(cls) -> "LogGOPSParams":
        """Parameters measured with Netgauge on the CSCS test-bed (paper §5.3)."""
        return cls(L=3000, o=6000, g=0, G=0.18, O=0.0, S=256000)

    def bandwidth_bytes_per_ns(self) -> float:
        """Injection bandwidth implied by ``G`` (bytes per ns)."""
        return float("inf") if self.G == 0 else 1.0 / self.G


@dataclass
class SimulationConfig:
    """Complete configuration of a simulation run.

    Topology and routing
    --------------------
    topology:
        Name of a registered topology: ``"single_switch"``, ``"fat_tree"``
        (two-level, with ``oversubscription``), ``"fat_tree_multiplane"``
        (core tier split into ``fattree_planes`` drainable planes),
        ``"fat_tree_rail"`` (rail-optimized, ``fattree_rails`` GPUs per
        server), ``"dragonfly"``, ``"torus"`` or ``"slimfly"`` (see
        :data:`repro.network.topology.TOPOLOGY_BUILDERS`).
    nodes_per_tor / oversubscription / fattree_* / dragonfly_* / torus_* / slimfly_* :
        Shape parameters of the chosen topology (ignored by the others).
    routing:
        Routing strategy selecting one route per message: ``"minimal"``
        (ECMP), ``"valiant"`` or ``"adaptive"`` (UGAL-style); see
        :data:`repro.network.routing.ROUTING_STRATEGIES`.
    loggops_use_topology:
        Whether the message-level backend derives per-message wire latency
        from the topology's routed path (hop-count model) instead of the
        flat LogGOPS ``L``.  ``None`` (the default) enables it exactly for
        the topologies whose point is path diversity (``torus``,
        ``slimfly``), preserving the calibrated flat-``L`` behaviour of the
        paper's fat-tree/dragonfly experiments.

    Packet-level parameters
    -----------------------
    link_bandwidth:
        Host and edge link bandwidth in bytes per nanosecond (default
        25 B/ns = 25 GB/s, the paper's per-direction Slingshot bandwidth;
        this is the reciprocal of LogGOPS ``G`` = 0.04 ns/B).
    link_latency:
        Per-hop propagation latency in ns.
    mtu:
        Packet payload size in bytes.
    buffer_size:
        Per-port output queue capacity in bytes (1 MiB in the paper).
    ecn_kmin_frac / ecn_kmax_frac:
        ECN marking thresholds as fractions of ``buffer_size`` (0.2 / 0.8 in
        the paper).
    cc_algorithm:
        One of ``"mprdma"``, ``"swift"``, ``"dctcp"``, ``"ndp"``,
        ``"fixed"`` (see
        :func:`repro.network.congestion.congestion_control_names`).
    host_overhead:
        Per-message host processing overhead (ns) charged by the packet
        backend before injection and after delivery (plays the role of
        LogGOPS ``o``).

    Shared
    ------
    loggops:
        LogGOPS parameters (used by the message-level backend).
    faults:
        A :class:`~repro.network.faults.FaultSchedule` describing a degraded
        fabric: statically failed/derated links and timed link-down/link-up/
        switch-drain events.  The packet backend masks failed links out of
        routing and reroutes in-flight traffic; the LogGOPS backend inflates
        per-byte serialisation by the lost capacity fraction.  The default
        (empty) schedule is bit-identical to the pre-fault behaviour.
    control_plane / cp_propagation_ns / cp_processing_ns:
        Route-convergence model (see :mod:`repro.network.control_plane`).
        ``"oracle"`` (the default) builds no control plane: every switch
        knows each fault the moment it happens;
        ``"ls"`` (link-state flooding) and ``"dv"`` (distance-vector) make
        switches learn of fault events hop-by-hop, forwarding on stale
        tables meanwhile.  ``cp_propagation_ns`` is the per-hop
        advertisement wire delay and ``cp_processing_ns`` the per-switch
        update processing cost.
    seed:
        Seed for any stochastic choice (ECMP hashing, jitter); non-negative.
    route_cache_entries / route_synthesis:
        Route-table memory model (see ``docs/scaling.md``).  Per-pair
        route/alive/view tables live in LRU caches bounded to
        ``route_cache_entries`` entries each (0 = unbounded);
        ``route_synthesis`` builds candidates structurally from coordinates
        instead of the enumeration reference.  Both are exact: any setting
        produces bit-identical simulated results for the same seed.
    shards:
        Conservative-window parallel packet engine (see ``docs/scaling.md``):
        partition the fabric into this many shards, one event loop each,
        exchanging boundary packets at lookahead barriers.  ``1`` (the
        default) is the single-process engine, bit-identical to previous
        releases; ``>1`` is deterministic and shard-count-invariant,
        including fault schedules and convergent control planes (exact vs.
        serial) and load-adaptive routing (barrier load snapshots taken
        every minimum link latency of the topology).  Packet backend only.
    """

    # topology
    topology: str = "fat_tree"
    nodes_per_tor: int = 16
    oversubscription: float = 1.0
    fattree_planes: int = 2  # fat_tree_multiplane: drainable core planes
    fattree_rails: int = 4  # fat_tree_rail: GPUs (rails) per server
    dragonfly_groups: int = 4
    dragonfly_routers_per_group: int = 4
    dragonfly_nodes_per_router: int = 4
    torus_dims: Tuple[int, ...] = (4, 4)
    torus_hosts_per_node: int = 1
    slimfly_q: int = 5
    slimfly_hosts_per_router: int = 0  # 0 = ceil(network_radix / 2)

    # routing
    routing: str = "minimal"
    loggops_use_topology: Optional[bool] = None  # None = auto (torus/slimfly)

    # message-level backend
    loggops: LogGOPSParams = field(default_factory=LogGOPSParams)

    # packet-level backend
    link_bandwidth: float = 25.0  # bytes per ns (25 GB/s)
    link_latency: int = 500  # ns per hop
    mtu: int = 4096
    buffer_size: int = 1 << 20  # 1 MiB per port
    ecn_kmin_frac: float = 0.2
    ecn_kmax_frac: float = 0.8
    cc_algorithm: str = "mprdma"
    host_overhead: int = 200
    initial_window_packets: int = 16
    min_retransmit_timeout: int = 100_000  # ns
    ack_size: int = 64

    # route-table memory model (see docs/scaling.md): per-pair route/alive/
    # view tables live in LRU caches bounded to this many entries per cache
    # (0 = unbounded, the pre-bounded memo behaviour).  Eviction is exact —
    # evicted tables are rebuilt bit-identically on the next lookup.
    # route_synthesis selects structural candidate synthesis (closed-form
    # link ids from coordinates) over the enumeration reference; both are
    # bit-identical by construction and tested against each other.
    route_cache_entries: int = 16384
    route_synthesis: bool = True

    # conservative-window parallel packet engine (see docs/scaling.md):
    # shards > 1 partitions hosts/switches into that many shards, runs one
    # event loop per shard, each in its own worker process (repro.workers:
    # a worker that dies, or processes that cannot start, fail the run
    # with one WorkerError), and exchanges boundary-crossing packets at
    # lookahead barriers.  shards=1 (the default) is the single-process
    # engine.  Sharded runs are deterministic and shard-count-invariant
    # (stochastic choices are keyed by flow / queue identity rather than
    # drawn from one global stream), and coincide with shards=1 exactly on
    # configurations that consume no randomness.  Fault schedules and
    # convergent control planes replay exactly under sharding (every shard
    # replays the fault events and advertisement waves from its own event
    # queue); load-adaptive routing reads barrier load snapshots taken every
    # minimum link latency — exact across shard counts >= 2, an
    # approximation of serial's live loads.  Packet backend only.
    shards: int = 1

    # fault injection: static degraded-fabric state plus timed link/switch
    # failure events, honored by both backends (see repro.network.faults).
    # An empty schedule (the default) is guaranteed bit-identical to a run
    # without any fault machinery.
    faults: FaultSchedule = field(default_factory=FaultSchedule)

    # control-plane convergence model: "oracle" builds no control plane
    # (every switch knows each fault at once); "ls"/"dv" propagate
    # fault knowledge switch-by-switch with the delays below, black-holing
    # traffic that stale switches forward into the failed region (see
    # repro.network.control_plane and docs/control_plane.md).
    control_plane: str = "oracle"
    cp_propagation_ns: int = 500
    cp_processing_ns: int = 100

    # misc
    seed: int = 0
    collect_message_records: bool = True

    def __post_init__(self) -> None:
        # imported here to keep repro.network.topology/routing import-light
        from repro.network.routing import ROUTING_STRATEGIES
        from repro.network.topology import TOPOLOGY_BUILDERS

        if self.topology not in TOPOLOGY_BUILDERS:
            raise ValueError(
                f"unknown topology {self.topology!r} "
                f"(registered: {', '.join(sorted(TOPOLOGY_BUILDERS))})"
            )
        if self.routing not in ROUTING_STRATEGIES:
            raise ValueError(
                f"unknown routing {self.routing!r} "
                f"(registered: {', '.join(sorted(ROUTING_STRATEGIES))})"
            )
        # NaN slips past every comparison below, so the int fields are made
        # whole numbers first (4.0 is taken as 4) and the float checks
        # require finiteness
        for f in dataclasses.fields(self):
            if f.type != "int":
                continue
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Integral) and not (
                isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
            ):
                raise ValueError(f"{f.name} must be a whole number, got {value!r}")
            setattr(self, f.name, int(value))
        if not (math.isfinite(self.oversubscription) and self.oversubscription >= 1.0):
            raise ValueError(
                f"oversubscription must be finite and >= 1.0, got {self.oversubscription}"
            )
        if self.nodes_per_tor <= 0:
            raise ValueError("nodes_per_tor must be positive")
        if self.fattree_planes <= 0:
            raise ValueError("fattree_planes must be positive")
        if self.fattree_rails <= 0:
            raise ValueError("fattree_rails must be positive")
        if self.route_cache_entries < 0:
            raise ValueError(
                "route_cache_entries must be non-negative (0 = unbounded)"
            )
        if self.torus_hosts_per_node <= 0:
            raise ValueError("torus_hosts_per_node must be positive")
        if self.slimfly_hosts_per_router < 0:
            raise ValueError("slimfly_hosts_per_router must be non-negative")
        self.torus_dims = tuple(self.torus_dims)
        if len(self.torus_dims) not in (2, 3) or any(d < 2 for d in self.torus_dims):
            raise ValueError(
                f"torus_dims must be 2 or 3 ring lengths, each >= 2, got {self.torus_dims}"
            )
        from repro.network.topology.slimfly import _is_prime

        if not _is_prime(self.slimfly_q) or self.slimfly_q % 4 != 1:
            raise ValueError(
                f"slimfly_q must be a prime with q % 4 == 1 (5, 13, 17, ...), got {self.slimfly_q}"
            )
        if not (math.isfinite(self.link_bandwidth) and self.link_bandwidth > 0):
            raise ValueError(
                f"link_bandwidth must be finite and positive, got {self.link_bandwidth}"
            )
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")
        if self.buffer_size < self.mtu:
            raise ValueError("buffer_size must hold at least one MTU")
        if not (0.0 <= self.ecn_kmin_frac <= self.ecn_kmax_frac <= 1.0):
            raise ValueError("require 0 <= ecn_kmin_frac <= ecn_kmax_frac <= 1")
        from repro.network.congestion import congestion_control_names

        if self.cc_algorithm not in congestion_control_names():
            raise ValueError(f"unknown cc_algorithm {self.cc_algorithm!r}")
        if self.host_overhead < 0 or self.link_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.initial_window_packets <= 0:
            raise ValueError("initial_window_packets must be positive")
        if self.min_retransmit_timeout <= 0:
            raise ValueError(
                f"min_retransmit_timeout must be positive, got {self.min_retransmit_timeout}"
            )
        if self.ack_size <= 0:
            raise ValueError(f"ack_size must be positive, got {self.ack_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1 (1 = single-process engine)")
        from repro.network.control_plane import control_plane_names

        if self.control_plane not in control_plane_names():
            raise ValueError(
                f"unknown control plane {self.control_plane!r} "
                f"(registered: {', '.join(control_plane_names())})"
            )
        for name in ("cp_propagation_ns", "cp_processing_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.faults is None:
            self.faults = FaultSchedule()
        elif not isinstance(self.faults, FaultSchedule):
            raise ValueError(
                f"faults must be a FaultSchedule (or None for a healthy fabric), "
                f"got {type(self.faults).__name__}"
            )

    def loggops_topology_enabled(self) -> bool:
        """Whether the LogGOPS backend should route through the topology.

        ``loggops_use_topology`` overrides when set; otherwise topology-aware
        latency is enabled exactly for the path-diverse topologies added on
        top of the paper's calibrated flat-``L`` setups.
        """
        if self.loggops_use_topology is not None:
            return self.loggops_use_topology
        return self.topology in ("torus", "slimfly")

    def replace(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def describe(self) -> Dict[str, object]:
        """Return a flat dictionary of the configuration (for reports)."""
        d = dataclasses.asdict(self)
        d["loggops"] = dataclasses.asdict(self.loggops)
        return d
