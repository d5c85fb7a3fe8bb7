"""Network simulation backends and substrates.

This package contains everything below the GOAL scheduler:

* :mod:`repro.network.backend` — the unified backend API (the paper's
  ``ATLAHS_API``: ``simulationSetup`` / ``send`` / ``recv`` / ``calc`` /
  ``eventOver``) plus result/statistics containers,
* :mod:`repro.network.loggops` — the message-level LogGOPS backend
  (the LogGOPSim substrate),
* :mod:`repro.network.packet` — the packet-level backend (the htsim
  substrate) with queues, ECN, drops and congestion control,
* :mod:`repro.network.congestion` — congestion-control algorithms
  (MPRDMA, Swift, DCTCP, NDP, fixed window),
* :mod:`repro.network.topology` — network topologies (fat trees with
  configurable oversubscription, dragonfly, 2D/3D torus, Slim Fly, single
  switch),
* :mod:`repro.network.routing` — pluggable routing strategies (minimal/ECMP,
  Valiant, UGAL-style adaptive) applied on top of any topology,
* :mod:`repro.network.faults` — fault injection: degraded fabrics, timed
  link/switch failure events, and the partition error both backends raise
  when no route survives,
* :mod:`repro.network.control_plane` — route-convergence models (oracle /
  link-state flooding / distance-vector): per-switch routing views that heal
  hop-by-hop after fault events, with time-to-recover and blackhole
  accounting.
"""
from repro.network.config import LogGOPSParams, SimulationConfig
from repro.network.control_plane import (
    CONTROL_PLANES,
    ControlPlane,
    ConvergenceRecord,
    control_plane_names,
    create_control_plane,
)
from repro.network.faults import (
    FaultEvent,
    FaultSchedule,
    NetworkPartitionError,
)
from repro.network.backend import (
    NetworkBackend,
    SimulationResult,
    LinkStats,
    MessageRecord,
    MessageRecords,
    NetworkStats,
    create_backend,
)
from repro.network.routing import (
    ROUTING_STRATEGIES,
    RoutingStrategy,
    create_routing,
    routing_names,
)

__all__ = [
    "LogGOPSParams",
    "SimulationConfig",
    "CONTROL_PLANES",
    "ControlPlane",
    "ConvergenceRecord",
    "control_plane_names",
    "create_control_plane",
    "FaultEvent",
    "FaultSchedule",
    "NetworkPartitionError",
    "NetworkBackend",
    "SimulationResult",
    "LinkStats",
    "MessageRecord",
    "MessageRecords",
    "NetworkStats",
    "create_backend",
    "ROUTING_STRATEGIES",
    "RoutingStrategy",
    "create_routing",
    "routing_names",
]
