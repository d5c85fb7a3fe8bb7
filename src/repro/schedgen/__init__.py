"""Schedule generators: convert traces (or synthetic patterns) into GOAL.

* :mod:`repro.schedgen.mpi` — liballprof MPI traces → GOAL (the paper's
  Schedgen, §3.1.1): infers computation from timestamp gaps and substitutes
  collectives with their point-to-point algorithms,
* :mod:`repro.schedgen.nccl` — nsys-like NCCL traces → GOAL (the 4-stage
  pipeline of §3.1.2 / Fig. 5), including GPU→node grouping with intra-node
  communication replaced by ``calc`` vertices,
* :mod:`repro.schedgen.walk` — the trace walk both of them run on (lanes,
  the gap rule, collective matching and the one ``TraceMismatchError``),
* :mod:`repro.schedgen.grouping` — the Stage-4 / multi-tenant DAG grouping
  transformation, usable on any GOAL schedule,
* :mod:`repro.schedgen.storage` — SPC block-I/O traces → GOAL for the Azure
  Direct Drive architecture (§3.1.3 / Fig. 6),
* :mod:`repro.schedgen.synthetic` — the synthetic microbenchmarks (incast,
  permutation, all-to-all, ring allreduce) that the paper argues are not
  sufficient on their own.
"""
from repro.schedgen.mpi import MpiScheduleGenerator, mpi_trace_to_goal
from repro.schedgen.nccl import NcclScheduleGenerator, nccl_trace_to_goal
from repro.schedgen.grouping import group_ranks_into_nodes
from repro.schedgen.storage import DirectDriveConfig, DirectDriveScheduleGenerator, storage_trace_to_goal
from repro.schedgen.synthetic import (
    incast,
    permutation,
    all_to_all,
    ring_allreduce_microbenchmark,
    uniform_random_pairs,
)

__all__ = [
    "MpiScheduleGenerator",
    "mpi_trace_to_goal",
    "NcclScheduleGenerator",
    "nccl_trace_to_goal",
    "group_ranks_into_nodes",
    "DirectDriveConfig",
    "DirectDriveScheduleGenerator",
    "storage_trace_to_goal",
    "incast",
    "permutation",
    "all_to_all",
    "ring_allreduce_microbenchmark",
    "uniform_random_pairs",
]
