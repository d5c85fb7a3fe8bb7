"""The :class:`Atlahs` facade: trace → GOAL → simulate pipelines in one call.

The individual packages (:mod:`repro.apps`, :mod:`repro.tracers`,
:mod:`repro.schedgen`, :mod:`repro.scheduler`, :mod:`repro.network`) can be
used directly; this facade wires the common end-to-end pipelines the paper's
evaluation exercises, and is what the examples and benchmarks use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.apps.ai import LlmTrainer, ModelConfig, ParallelismConfig
from repro.apps.hpc import HPC_APPLICATIONS, HpcRunConfig
from repro.baselines.astrasim import AstraSimBaseline, nsys_to_chakra
from repro.collectives.nccl import NcclConfig
from repro.goal.binary import encode_goal_chunks
from repro.goal.schedule import GoalSchedule
from repro.goal.validate import validate_schedule
from repro.network.backend import SimulationResult
from repro.network.config import LogGOPSParams, SimulationConfig
from repro.schedgen import (
    mpi_trace_to_goal,
    nccl_trace_to_goal,
    storage_trace_to_goal,
)
from repro.schedgen.storage import DirectDriveConfig
from repro.scheduler import simulate
from repro.tracers.storage import SpcTrace


@dataclass
class PipelineResult:
    """Everything one end-to-end pipeline run produced.

    Attributes
    ----------
    schedule:
        The generated GOAL schedule.
    result:
        The simulation result (``None`` when only trace/GOAL generation was
        requested).
    trace_bytes:
        Size of the raw application trace serialisation (Table 1's "Trace"
        column), when a raw trace exists for the pipeline.
    goal_bytes:
        Size of the compact binary GOAL encoding (Table 1's "GOAL" column).
    extras:
        Pipeline-specific artefacts (e.g. the raw trace object, Chakra sizes).
    """

    schedule: GoalSchedule
    result: Optional[SimulationResult] = None
    trace_bytes: int = 0
    goal_bytes: int = 0
    extras: Dict[str, object] = field(default_factory=dict)


class Atlahs:
    """End-to-end pipelines of the toolchain.

    Parameters
    ----------
    config:
        Default :class:`SimulationConfig` used when a pipeline call does not
        supply its own.
    """

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()

    # ----------------------------------------------------------------- generic
    def simulate_goal(
        self,
        schedule: GoalSchedule,
        backend: str = "lgs",
        config: Optional[SimulationConfig] = None,
        validate: bool = True,
    ) -> SimulationResult:
        """Replay an existing GOAL schedule on the chosen backend."""
        return simulate(schedule, backend=backend, config=config or self.config, validate=validate)

    def _pipeline(
        self,
        schedule: GoalSchedule,
        backend: str,
        config: Optional[SimulationConfig],
        simulate_schedule: bool = True,
        op_groups=None,
        **fields,
    ) -> PipelineResult:
        """Every pipeline's tail: validate, simulate unless told not to, and measure the GOAL."""
        validate_schedule(schedule)
        result = (
            simulate(
                schedule, backend=backend, config=config or self.config,
                validate=False, op_groups=op_groups,
            )
            if simulate_schedule
            else None
        )
        # the encoding's size, counted batch by batch: no blob is built
        goal_bytes = sum(map(len, encode_goal_chunks(schedule)))
        return PipelineResult(schedule=schedule, result=result, goal_bytes=goal_bytes, **fields)

    # --------------------------------------------------------------------- HPC
    def run_hpc(
        self,
        app_name: str,
        run_config: HpcRunConfig,
        backend: str = "lgs",
        config: Optional[SimulationConfig] = None,
        compute_scale: float = 1.0,
        simulate_schedule: bool = True,
    ) -> PipelineResult:
        """Trace an HPC application model, convert to GOAL, and simulate it."""
        try:
            app = HPC_APPLICATIONS[app_name]
        except KeyError:
            raise ValueError(
                f"unknown HPC application {app_name!r}; available: {sorted(HPC_APPLICATIONS)}"
            ) from None
        trace = app.trace(run_config)
        return self._pipeline(
            mpi_trace_to_goal(trace, compute_scale=compute_scale),
            backend,
            config or self.config.replace(loggops=LogGOPSParams.hpc_cluster()),
            simulate_schedule,
            trace_bytes=trace.size_bytes(),
            extras={"trace": trace},
        )

    # ---------------------------------------------------------------------- AI
    def run_ai_training(
        self,
        model: ModelConfig,
        parallelism: ParallelismConfig,
        iterations: int = 2,
        gpus_per_node: int = 4,
        nccl_config: Optional[NcclConfig] = None,
        backend: str = "lgs",
        config: Optional[SimulationConfig] = None,
        compute_scale: float = 1.0,
        simulate_schedule: bool = True,
        seed: int = 0,
        collective_algorithm: Optional[str] = None,
    ) -> PipelineResult:
        """Trace an LLM-training model, run the 4-stage pipeline, and simulate it.

        ``collective_algorithm`` overrides Stage 3's collective
        decomposition with an algorithm from the
        :mod:`repro.collectives.algorithms` registry (e.g. ``"hier_rs"``
        for node-hierarchical allreduces, or ``"auto"`` for the LogGOPS
        autotuner); ``None`` keeps the NCCL chunked ring/tree path.
        """
        trainer = LlmTrainer(
            model, parallelism, gpus_per_node=gpus_per_node, iterations=iterations, seed=seed
        )
        report = trainer.trace()
        schedule = nccl_trace_to_goal(
            report,
            nccl_config=nccl_config,
            compute_scale=compute_scale,
            gpus_per_node=gpus_per_node,
            collective_algorithm=collective_algorithm,
        )
        return self._pipeline(
            schedule,
            backend,
            config or self.config.replace(loggops=LogGOPSParams.ai_cluster()),
            simulate_schedule,
            trace_bytes=report.size_bytes(),
            extras={"report": report, "iterations": iterations},
        )

    def compare_with_astrasim(self, report, chakra_name: Optional[str] = None) -> Dict[str, object]:
        """Convert an NCCL trace to Chakra and run the AstraSim-like baseline.

        Returns the Chakra trace size and — when the baseline supports the
        workload — its predicted runtime and wall-clock simulation time.
        """
        chakra = nsys_to_chakra(report, name=chakra_name)
        out: Dict[str, object] = {"chakra_bytes": chakra.size_bytes(), "chakra": chakra}
        baseline = AstraSimBaseline()
        try:
            result = baseline.simulate(chakra)
        except Exception as exc:  # noqa: BLE001 - the failure reason is the result
            out["error"] = str(exc)
            return out
        out["finish_time_ns"] = result.finish_time_ns
        out["wall_clock_s"] = result.wall_clock_s
        return out

    # ----------------------------------------------------------------- storage
    def run_storage(
        self,
        trace: SpcTrace,
        direct_drive: Optional[DirectDriveConfig] = None,
        backend: str = "htsim",
        config: Optional[SimulationConfig] = None,
        simulate_schedule: bool = True,
    ) -> PipelineResult:
        """Replay an SPC block-I/O trace against the Direct Drive model."""
        dd = direct_drive or DirectDriveConfig()
        return self._pipeline(
            storage_trace_to_goal(trace, dd),
            backend,
            config,
            simulate_schedule,
            trace_bytes=trace.size_bytes(),
            extras={"direct_drive": dd},
        )

    # --------------------------------------------------------------- inference
    def run_inference(
        self,
        num_requests: int = 64,
        rate_rps: float = 400.0,
        process: str = "poisson",
        tenants=None,
        cluster=None,
        slo=None,
        backend: str = "lgs",
        config: Optional[SimulationConfig] = None,
        seed: int = 0,
        **process_kwargs,
    ) -> PipelineResult:
        """Generate and simulate one inference-serving cell, with SLO metrics.

        Builds an open-loop serving workload via
        :func:`repro.apps.inference.build_inference_workload`, simulates it
        with per-request op groups, and folds the group finish times into
        :class:`repro.measurement.serving.ServingMetrics`.  The plan and the
        metrics ride in ``extras`` (``extras["plan"]``/``extras["metrics"]``).
        """
        from repro.apps.inference import build_inference_workload
        from repro.measurement.serving import compute_serving_metrics

        plan = build_inference_workload(
            num_requests=num_requests,
            rate_rps=rate_rps,
            process=process,
            tenants=tenants,
            cluster=cluster,
            seed=seed,
            **process_kwargs,
        )
        out = self._pipeline(
            plan.schedule, backend, config, op_groups=plan.op_groups, extras={"plan": plan}
        )
        out.extras["metrics"] = compute_serving_metrics(plan, out.result, slo=slo)
        return out
