"""Benchmark harness behind ``atlahs bench``: the repo's perf trajectory.

Runs a standard workload suite on both backends, measures wall-clock
seconds (best of ``repeats`` runs), executed events per second and peak
RSS, and writes the results to ``BENCH_<rev>.json``.  Committing one such
file per perf-relevant change gives the project a tracked baseline: every
future optimization (or regression) is judged against the recorded
numbers by :func:`compare_to_baseline`, and CI runs the quick variant of
the suite with a tolerant regression gate (see ``.github/workflows/
ci.yml``).

The suite:

* ``fig8_ai_lgs`` / ``fig8_ai_htsim`` — the paper's §5.2 simulator-runtime
  workload (Llama-7B data-parallel training trace) on each backend,
* ``alltoall_lgs`` — a send-dense collective front on the message backend
  (the scalar LogGOPS recurrence plus the scheduler),
* ``alltoall_htsim_adaptive`` — the packet backend under adaptive (UGAL)
  routing, exercising the cached route tables and the vectorized route
  costs,
* ``cotenant_2job_htsim`` — two all-to-all jobs merged by the co-tenancy
  engine onto a fragmented placement of an oversubscribed fat tree, with
  per-job attribution enabled (measures the multi-job merge plus the
  job-tagged stats path),
* ``faulted_alltoall_htsim`` — the all-to-all on a fat tree with a quarter
  of the core cables failed from time 0 (measures the alive-masked route
  tables and the per-packet fault checks of the forwarding loop),
* ``faulted_allreduce_htsim_sh2`` — a recursive-doubling allreduce on the
  two-shard conservative-window engine with a timed link flap mid-run
  (measures fault events replayed on every shard's replica, the
  cross-shard re-pick sweep and boundary packets shipping their routes),
* ``allreduce16k_lgs`` / ``allreduce16k_htsim`` — ROADMAP item 2's
  datacenter-scale acceptance case: a 16384-endpoint recursive-doubling
  allreduce on a 512-ToR fat tree, on each backend.  These two cases
  track *memory* as much as speed: they run with the default bounded
  route caches and structural synthesis, and their ``peak_rss_kb`` is
  gated in CI against the committed baseline (see docs/scaling.md).
  They are deliberately ordered last — ``ru_maxrss`` is a process-lifetime
  high-water mark, so only the largest cases' RSS numbers are meaningful,
* ``allreduce16k_htsim_sh4`` — the 16k-endpoint packet case again on the
  sharded conservative-window engine (``SimulationConfig.shards=4``, one
  worker process per shard); compared against ``allreduce16k_htsim`` this
  is the tracked speedup of the parallel engine, and its ``peak_rss_kb``
  additionally covers the shard workers via ``RUSAGE_CHILDREN``.

``--quick`` shrinks every case (used by the CI smoke job); quick numbers
are only comparable to other quick numbers.  The 16k-endpoint cases keep
their 16384 ranks in quick mode (scale is their point) and shrink only the
payload.

Use with a profiler (see ``docs/performance.md`` for the recipe)::

    PYTHONPATH=src python -m cProfile -s cumulative -m repro.cli bench --quick
"""
from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.network.config import LogGOPSParams, SimulationConfig
from repro.network.faults import LINK_DOWN, LINK_UP, FaultEvent, FaultSchedule
from repro.scheduler import GoalScheduler

#: Format version of the BENCH json files.
BENCH_FORMAT = 1


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case: a schedule factory plus a backend configuration."""

    name: str
    backend: str
    make_schedule: Callable[[], object]
    config: SimulationConfig
    repeats: int = 3


def _fig8_schedule(quick: bool):
    """The paper's Fig. 8 simulator-runtime workload (Llama-7B DP training)."""
    from repro.apps.ai import LlmTrainer, ParallelismConfig, llama_7b
    from repro.schedgen import nccl_trace_to_goal

    if quick:
        model = llama_7b().scaled(0.05)
        par = ParallelismConfig(tp=1, pp=1, dp=8, microbatches=2, global_batch=16)
    else:
        model = llama_7b().scaled(0.05)
        par = ParallelismConfig(tp=1, pp=1, dp=16, microbatches=2, global_batch=32)
    report = LlmTrainer(model, par, gpus_per_node=4, iterations=1).trace()
    return nccl_trace_to_goal(report, gpus_per_node=4)


def _alltoall_schedule(quick: bool):
    from repro.schedgen import all_to_all

    return all_to_all(8 if quick else 16, 1 << 14)


def _cotenant_schedule(quick: bool):
    """Two all-to-all jobs fragmented across an oversubscribed fat tree."""
    from repro.cluster import ClusterJob, build_cotenant_schedule
    from repro.schedgen import all_to_all

    ranks = 4 if quick else 8
    jobs = [
        ClusterJob(all_to_all(ranks, 1 << 16), name="jobA"),
        ClusterJob(all_to_all(ranks, 1 << 16), arrival_ns=10_000, name="jobB"),
    ]
    plan = build_cotenant_schedule(
        jobs, cluster_nodes=2 * ranks, strategy="fragmented", group_size=4
    )
    return plan.schedule


def _faulted_allreduce_schedule(quick: bool):
    """Recursive-doubling allreduce sized for the sharded fault-epoch case."""
    from repro.collectives import build_collective_schedule

    return build_collective_schedule(
        "allreduce",
        "recursive_doubling",
        16 if quick else 64,
        1 << 13 if quick else 1 << 15,
        name="faulted-allreduce",
    )


def _allreduce16k_schedule(quick: bool):
    """16384-endpoint recursive-doubling allreduce (ROADMAP item 2 acceptance).

    Recursive doubling costs ``N·log2(N)`` messages (~229k at 16k ranks) —
    tractable on both backends — while touching a fresh set of ~16k host
    pairs every round, which is exactly the access pattern the bounded LRU
    route caches must absorb.
    """
    from repro.collectives import build_collective_schedule

    return build_collective_schedule(
        "allreduce",
        "recursive_doubling",
        16384,
        64 if quick else 1024,
        name="allreduce16k",
    )


def default_suite(quick: bool = False) -> List[BenchCase]:
    """The standard bench suite (shrunk sizes when ``quick``)."""
    lgs_cfg = SimulationConfig(loggops=LogGOPSParams.ai_cluster())
    pkt_cfg = SimulationConfig(topology="fat_tree", nodes_per_tor=4)
    # 16k endpoints: 512 ToRs x 32 hosts, fully provisioned; message records
    # off (229k records would measure the recorder, not the route caches)
    scale_cfg = SimulationConfig(
        topology="fat_tree",
        nodes_per_tor=32,
        loggops=LogGOPSParams.ai_cluster(),
        collect_message_records=False,
    )
    return [
        BenchCase(
            "fig8_ai_lgs", "lgs", lambda: _fig8_schedule(quick), lgs_cfg, repeats=5
        ),
        BenchCase(
            "fig8_ai_htsim", "htsim", lambda: _fig8_schedule(quick), pkt_cfg, repeats=3
        ),
        BenchCase(
            "alltoall_lgs", "lgs", lambda: _alltoall_schedule(quick), lgs_cfg, repeats=5
        ),
        BenchCase(
            "alltoall_htsim_adaptive",
            "htsim",
            lambda: _alltoall_schedule(quick),
            pkt_cfg.replace(routing="adaptive"),
            repeats=3,
        ),
        BenchCase(
            "cotenant_2job_htsim",
            "htsim",
            lambda: _cotenant_schedule(quick),
            pkt_cfg.replace(oversubscription=4.0, job_tag_stride=1 << 32),
            repeats=3,
        ),
        BenchCase(
            "faulted_alltoall_htsim",
            "htsim",
            lambda: _alltoall_schedule(quick),
            pkt_cfg.replace(faults=FaultSchedule(link_failure_rate=0.25)),
            repeats=3,
        ),
        # the sharded engine under a timed fault: the driver clamps windows
        # at the epoch, applies it at one barrier on every shard, and the
        # owners re-pick live flows (docs/scaling.md, v2 support matrix)
        BenchCase(
            "faulted_allreduce_htsim_sh2",
            "htsim",
            lambda: _faulted_allreduce_schedule(quick),
            pkt_cfg.replace(
                shards=2,
                faults=FaultSchedule(
                    events=(
                        FaultEvent(3_000, LINK_DOWN, "tor0->core0"),
                        FaultEvent(9_000, LINK_UP, "tor0->core0"),
                    )
                ),
            ),
            repeats=3,
        ),
        # keep the 16k-endpoint cases LAST: peak RSS is a process-lifetime
        # high-water mark, so their recorded numbers are only meaningful
        # when no later case can dominate them
        BenchCase(
            "allreduce16k_lgs",
            "lgs",
            lambda: _allreduce16k_schedule(quick),
            scale_cfg.replace(loggops_use_topology=True),
            repeats=1,
        ),
        BenchCase(
            "allreduce16k_htsim",
            "htsim",
            lambda: _allreduce16k_schedule(quick),
            scale_cfg,
            repeats=1,
        ),
        # the same case on the sharded engine (docs/scaling.md): 4 worker
        # processes advancing in conservative lookahead windows.  Ordered
        # after its serial twin so the committed baselines always pair the
        # two; its peak_rss_kb includes the workers (RUSAGE_CHILDREN).
        BenchCase(
            "allreduce16k_htsim_sh4",
            "htsim",
            lambda: _allreduce16k_schedule(quick),
            scale_cfg.replace(shards=4),
            repeats=1,
        ),
    ]


def _peak_rss_kb() -> Optional[int]:
    """Peak RSS in KiB (monotone high-water mark since process start).

    Reports ``max(RUSAGE_SELF, RUSAGE_CHILDREN)`` so memory allocated in
    pool workers — the sharded packet engine's shard processes, parallel
    sweeps — is visible to the CI peak-RSS gate.  ``RUSAGE_CHILDREN`` only
    covers *waited-for* children, so it is populated exactly when a worker
    pool has shut down (which every bench case's engine does before its
    measurement is read).  Baselines recorded before this fix measured
    ``RUSAGE_SELF`` alone; for single-process engines the two agree, and
    :func:`compare_to_baseline` therefore stays comparable across the
    change for every pre-existing case.
    """
    try:
        import resource

        own = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        children = int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return max(own, children)
    except Exception:  # pragma: no cover - non-POSIX platforms
        return None


def run_case(case: BenchCase) -> Dict[str, object]:
    """Run one case ``case.repeats`` times; report the best repeat.

    Wall clock, executed-event count and finish time are recorded *per
    repeat*, and every reported number comes from the repeat with the best
    wall clock — pairing the best wall clock with some other repeat's event
    count would skew ``events_per_s`` whenever counts differ across repeats.
    """
    schedule = case.make_schedule()
    best: Optional[tuple] = None  # (wall_s, events, finish_ns)
    for _ in range(case.repeats):
        scheduler = GoalScheduler(
            schedule, backend=case.backend, config=case.config, validate=False
        )
        t0 = time.perf_counter()
        result = scheduler.run()
        wall = time.perf_counter() - t0
        events = scheduler.events_executed
        if best is None or wall < best[0]:
            best = (wall, events, result.finish_time_ns)
    best_wall, events, finish_ns = best
    return {
        "backend": case.backend,
        "wall_clock_s": round(best_wall, 6),
        "events": events,
        "events_per_s": round(events / best_wall) if events and best_wall else None,
        "finish_time_ns": finish_ns,
        "peak_rss_kb": _peak_rss_kb(),
        "repeats": case.repeats,
    }


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except Exception:  # pragma: no cover - git absent
        return "unknown"


def run_suite(
    quick: bool = False, cases: Optional[List[BenchCase]] = None
) -> Dict[str, object]:
    """Run the bench suite and return the full result document."""
    suite = cases if cases is not None else default_suite(quick)
    results = {case.name: run_case(case) for case in suite}
    return {
        "format": BENCH_FORMAT,
        "revision": git_revision(),
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cases": results,
    }


def write_bench(results: Dict[str, object], output: Optional[str] = None) -> Path:
    """Write ``results`` to ``output`` (default ``BENCH_<rev>.json``)."""
    if output is None:
        suffix = "_quick" if results.get("quick") else ""
        output = f"BENCH_{results.get('revision', 'unknown')}{suffix}.json"
    path = Path(output)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str) -> Dict[str, object]:
    """Load a ``BENCH_*.json`` document."""
    return json.loads(Path(path).read_text())


@dataclass
class CaseComparison:
    """Wall-clock (and optionally peak-RSS) comparison of one case.

    RSS fields stay ``None`` when either side lacks ``peak_rss_kb`` (older
    baselines, non-POSIX platforms) or when no RSS threshold was requested;
    ``regressed`` then covers wall clock only.
    """

    name: str
    baseline_wall_s: float
    current_wall_s: float
    regressed: bool
    baseline_rss_kb: Optional[int] = None
    current_rss_kb: Optional[int] = None
    rss_regressed: bool = False

    @property
    def speedup(self) -> float:
        """How much faster the current run is (>1 means faster than baseline)."""
        if self.current_wall_s <= 0:
            return float("inf")
        return self.baseline_wall_s / self.current_wall_s

    @property
    def rss_ratio(self) -> Optional[float]:
        """Current peak RSS over baseline, or ``None`` when not compared."""
        if self.baseline_rss_kb is None or self.current_rss_kb is None:
            return None
        if self.baseline_rss_kb <= 0:
            return float("inf")
        return self.current_rss_kb / self.baseline_rss_kb


@dataclass
class BaselineComparison:
    """Result of comparing a bench run against a baseline document."""

    entries: List[CaseComparison] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CaseComparison]:
        return [e for e in self.entries if e.regressed or e.rss_regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 2.0,
    max_rss_regression: Optional[float] = None,
) -> BaselineComparison:
    """Compare wall clocks (and optionally peak RSS) against a baseline.

    A case *regresses* when its wall clock exceeds ``max_regression`` times
    the baseline's.  The default threshold of 2.0 is deliberately tolerant:
    it is meant to catch accidental algorithmic regressions in CI without
    flaking on machine noise, not to police single-digit percentages.
    Cases present on only one side are reported in ``missing`` and do not
    fail the comparison.

    When ``max_rss_regression`` is set (the CI memory gate uses 1.2, i.e.
    fail on >20% growth), a case additionally regresses when its
    ``peak_rss_kb`` exceeds that multiple of the baseline's.  RSS is a
    process-lifetime high-water mark, so the gate is meaningful only for
    the dominant (last-ordered, largest) cases of a suite; cases lacking
    RSS on either side are compared on wall clock alone.
    """
    if max_regression <= 0:
        raise ValueError("max_regression must be positive")
    if max_rss_regression is not None and max_rss_regression <= 0:
        raise ValueError("max_rss_regression must be positive")
    comparison = BaselineComparison()
    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    for name in sorted(set(base_cases) | set(cur_cases)):
        if name not in base_cases or name not in cur_cases:
            comparison.missing.append(name)
            continue
        base_wall = float(base_cases[name]["wall_clock_s"])
        cur_wall = float(cur_cases[name]["wall_clock_s"])
        entry = CaseComparison(
            name=name,
            baseline_wall_s=base_wall,
            current_wall_s=cur_wall,
            regressed=cur_wall > max_regression * base_wall,
        )
        if max_rss_regression is not None:
            base_rss = base_cases[name].get("peak_rss_kb")
            cur_rss = cur_cases[name].get("peak_rss_kb")
            if base_rss is not None and cur_rss is not None:
                entry.baseline_rss_kb = int(base_rss)
                entry.current_rss_kb = int(cur_rss)
                entry.rss_regressed = (
                    entry.current_rss_kb > max_rss_regression * entry.baseline_rss_kb
                )
        comparison.entries.append(entry)
    return comparison
