"""Point-to-point decompositions of collective operations.

The paper's schedule generators never emit "collective" vertices: every MPI
or NCCL collective is substituted by its point-to-point algorithm (sends,
receives and reduction computation) during GOAL generation (§3.1.1 stage
"Schedgen" and §3.1.2 Stage 3).  This package implements those algorithms
once so that both the MPI and the NCCL generators share them.

The package has five modules:

* :mod:`repro.collectives.context` — the
  :class:`~repro.collectives.context.CollectiveContext` every algorithm
  emits through: communicator, tags, reduction pricing, locality groups and
  the emission core (``entry`` / ``exchange`` / ``transfer`` / ``exits``),
* :mod:`repro.collectives.mpi` — classic MPI algorithms operating on whole
  buffers (ring, recursive doubling, binomial trees, linear gather/scatter,
  dissemination barrier, pairwise all-to-all) and the three shapes the other
  modules share (power-of-two fold, binomial tree, shift rounds),
* :mod:`repro.collectives.hierarchical` — topology-aware algorithms
  (recursive halving-doubling, bucket/2D-ring, two-level hierarchical
  variants over locality groups, Bruck allgather, van de Geijn broadcast),
* :mod:`repro.collectives.nccl` — NCCL-style chunked ring/tree algorithms
  whose schedules depend on the protocol (Simple / LL / LL128), the number
  of channels and the chunk size, mirroring the behaviour described in the
  paper's Fig. 4,
* :mod:`repro.collectives.algorithms` — the :class:`CollectiveAlgorithm`
  registry tying the above together with an analytic LogGOPS autotuner
  (:func:`select_algorithm`), the one name-resolution path
  (:func:`resolve_algorithm`) and standalone schedule construction
  (:func:`build_collective_schedule`).  See ``docs/collectives.md`` for
  the per-algorithm reference and how an algorithm is written.

All algorithms operate on a :class:`~repro.collectives.context.CollectiveContext`
and return, per participating rank, the vertex handle that later operations
of that rank must depend on.
"""
from repro.collectives.context import (
    CollectiveContext,
    TagAllocator,
    contiguous_groups,
    groups_from_topology,
)
from repro.collectives import mpi, nccl, hierarchical
from repro.collectives.algorithms import (
    COLLECTIVE_ALGORITHMS,
    AlgorithmChoice,
    CollectiveAlgorithm,
    CostModel,
    algorithm_names,
    build_collective_schedule,
    collective_names,
    get_algorithm,
    register_collective_algorithm,
    resolve_algorithm,
    select_algorithm,
)

__all__ = [
    "CollectiveContext",
    "TagAllocator",
    "contiguous_groups",
    "groups_from_topology",
    "mpi",
    "nccl",
    "hierarchical",
    "COLLECTIVE_ALGORITHMS",
    "AlgorithmChoice",
    "CollectiveAlgorithm",
    "CostModel",
    "algorithm_names",
    "build_collective_schedule",
    "collective_names",
    "get_algorithm",
    "register_collective_algorithm",
    "resolve_algorithm",
    "select_algorithm",
]
