"""ATLAHS reproduction: an application-centric network simulator toolchain.

The package mirrors the architecture of the ATLAHS paper (SC'25):

* :mod:`repro.goal` — the GOAL intermediate representation,
* :mod:`repro.tracers` / :mod:`repro.apps` — application models and the
  tracers that record them,
* :mod:`repro.schedgen` — converters from traces (and synthetic patterns) to
  GOAL schedules,
* :mod:`repro.collectives` — point-to-point decompositions of collective
  operations,
* :mod:`repro.scheduler` — the GOAL scheduler,
* :mod:`repro.network` — the message-level (LogGOPS) and packet-level
  (htsim-like) backends, topologies, and congestion control,
* :mod:`repro.placement` — job placement strategies,
* :mod:`repro.cluster` — several jobs sharing one fabric (placement, the
  multi-job merge, per-job attribution),
* :mod:`repro.baselines` — the AstraSim/Chakra-like comparison baseline,
* :mod:`repro.core` — the high-level :class:`~repro.core.atlahs.Atlahs`
  facade tying the pipeline together.
"""

__version__ = "1.0.0"

from repro.goal import GoalBuilder, GoalSchedule, Op, OpType
from repro.network import LogGOPSParams, SimulationConfig
from repro.scheduler import GoalScheduler, simulate

__all__ = [
    "__version__",
    "GoalBuilder",
    "GoalSchedule",
    "Op",
    "OpType",
    "LogGOPSParams",
    "SimulationConfig",
    "GoalScheduler",
    "simulate",
]
