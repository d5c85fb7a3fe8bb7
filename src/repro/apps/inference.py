"""Inference-serving workload family (the "millions of users" axis).

Where :mod:`repro.apps.ai` and :mod:`repro.apps.hpc` model *training/HPC*
communication (fixed iteration structure, every rank busy from t=0), this
module generates **production inference serving** workloads: an open-loop
stream of user requests arrives at a serving fleet, each request runs a
prefill phase, ships its KV cache to a decode rank, and then produces output
tokens through *continuous batching* — requests join and leave in-flight
batches between decode iterations.  The result is an ordinary
:class:`~repro.goal.schedule.GoalSchedule`, so the serving fleet composes
with every existing layer: co-tenancy (:mod:`repro.cluster`), fault
injection (:mod:`repro.network.faults`), collectives, both backends and all
topologies.

The generator has three parts:

1. **Arrival processes** (:data:`ARRIVAL_PROCESSES`): seeded open-loop
   request arrival streams — ``poisson`` (memoryless), ``bursty`` (a
   2-state Markov-modulated Poisson process whose inter-arrival CV exceeds
   1) and ``diurnal`` (non-homogeneous Poisson following a sinusoidal rate
   envelope, generated by thinning).  Equal seeds give bit-identical
   streams; ``tests/test_inference_arrivals_property.py`` pins the
   statistical properties.
2. **Request sampling**: a tenant mix (:class:`TenantSpec` weights) and
   per-tenant prompt/decode token distributions drawn from the same seeded
   RNG.
3. **The serving-engine plan**: requests are admitted to prefill ranks by
   earliest-nominal-finish, their KV caches stream to decode ranks, and a
   deterministic continuous-batching engine lays out the decode iterations
   (who joins which step, step durations growing with batch occupancy).
   The plan is then emitted as a GOAL DAG:

   * a per-request ``calc`` root on its own frontend stream realises the
     arrival time inside the GOAL model (the per-request generalisation of
     :func:`repro.goal.merge.delay_schedule`'s arrival vertex),
   * frontend → prefill prompt flows, prefill compute ``calc``s serialised
     on the prefill rank's compute stream (this queueing is what produces
     the capacity knee under overload),
   * prefill → decode KV-cache transfer flows sized by the prompt length,
   * per decode rank, a chain of decode-step ``calc``s; each step requires
     the KV arrivals of the requests joining it, and emits one token-level
     flow per in-flight request back to the frontend.

Per-request latency is recovered through the scheduler's *op-group*
machinery: the frontend receive of a request's first output token carries
group ``2 * request_id`` (TTFT) and the receive of its last token carries
group ``2 * request_id + 1`` (completion), so the ``finish_ns`` of
``SimulationResult.groups`` yields per-request TTFT and completion without
any backend changes.  The serving metrics layer
(:mod:`repro.measurement.serving`) turns those into SLO percentiles and
goodput; :func:`repro.sweep.inference_sweep`, ``atlahs inference`` and
``Atlahs.run_inference`` wire the family end-to-end.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.goal.builder import GoalBuilder
from repro.goal.schedule import GoalSchedule

#: Tag block per request: flow tags are ``request_id * TAG_BLOCK + offset``
#: so every (src, dst, tag) channel of the schedule is unique.  Offsets 0
#: and 1 are the prompt and KV-cache flows; token flows use ``2 + token``.
TAG_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# open-loop arrival processes
# ---------------------------------------------------------------------------
class ArrivalProcess:
    """Base class of seeded open-loop arrival-time generators.

    Subclasses draw from a private :func:`numpy.random.default_rng` seeded
    only from the constructor arguments, so equal parameters give
    bit-identical arrival streams and different seeds give distinct ones.
    """

    name = "abstract"

    def __init__(self, rate_rps: float, seed: int = 0) -> None:
        if not (rate_rps > 0) or not math.isfinite(rate_rps):
            raise ValueError(f"rate_rps must be a positive finite rate, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        # the process name enters the seed material through a *stable* hash
        # (never hash(): PYTHONHASHSEED would break cross-process determinism)
        name_tag = zlib.crc32(self.name.encode("utf-8"))
        return np.random.default_rng((name_tag, self.seed))

    def arrival_times_ns(self, num_requests: int) -> np.ndarray:
        """Return ``num_requests`` arrival times in ns (sorted int64 array)."""
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests}")
        times = self._generate(int(num_requests))
        return np.asarray(np.floor(times), dtype=np.int64)

    def _generate(self, n: int) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def mean_gap_ns(self) -> float:
        """Mean inter-arrival time implied by the offered rate."""
        return 1e9 / self.rate_rps


class PoissonArrivals(ArrivalProcess):
    """Memoryless open-loop arrivals: exponential inter-arrival times."""

    name = "poisson"

    def _generate(self, n: int) -> np.ndarray:
        gaps = self._rng().exponential(self.mean_gap_ns, size=n)
        return np.cumsum(gaps)


class BurstyArrivals(ArrivalProcess):
    """2-state Markov-modulated Poisson process (burstier than Poisson).

    The process alternates between a *burst* state running at
    ``burst_factor`` times the mean rate and a *calm* state whose rate is
    chosen so the long-run mean equals ``rate_rps``.  State dwell times are
    exponential with means ``burst_fraction`` / ``1 - burst_fraction`` of
    the mean cycle (``cycle_requests`` requests long), so the inter-arrival
    coefficient of variation exceeds the Poisson CV of 1.
    """

    name = "bursty"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 0,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        cycle_requests: float = 32.0,
    ) -> None:
        super().__init__(rate_rps, seed)
        if burst_factor <= 1.0:
            raise ValueError(f"burst_factor must exceed 1, got {burst_factor}")
        if not (0.0 < burst_fraction < 1.0):
            raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
        if burst_factor * burst_fraction >= 1.0:
            raise ValueError(
                "burst_factor * burst_fraction must stay below 1 so the calm "
                f"state keeps a positive rate (got {burst_factor} * {burst_fraction})"
            )
        if cycle_requests <= 0:
            raise ValueError(f"cycle_requests must be positive, got {cycle_requests}")
        self.burst_factor = float(burst_factor)
        self.burst_fraction = float(burst_fraction)
        self.cycle_requests = float(cycle_requests)

    def _generate(self, n: int) -> np.ndarray:
        rng = self._rng()
        burst_rate = self.burst_factor * self.rate_rps
        calm_rate = (
            self.rate_rps * (1.0 - self.burst_factor * self.burst_fraction)
            / (1.0 - self.burst_fraction)
        )
        cycle_ns = self.cycle_requests * self.mean_gap_ns
        dwell_ns = {
            True: self.burst_fraction * cycle_ns,
            False: (1.0 - self.burst_fraction) * cycle_ns,
        }
        gap_ns = {True: 1e9 / burst_rate, False: 1e9 / calm_rate}

        times = np.empty(n)
        t = 0.0
        in_burst = False
        state_end = rng.exponential(dwell_ns[in_burst])
        produced = 0
        while produced < n:
            candidate = t + rng.exponential(gap_ns[in_burst])
            if candidate >= state_end:
                # memorylessness: restart the draw in the next state
                t = state_end
                in_burst = not in_burst
                state_end = t + rng.exponential(dwell_ns[in_burst])
                continue
            t = candidate
            times[produced] = t
            produced += 1
        return times


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with a sinusoidal rate envelope.

    The rate at time ``t`` is ``rate_rps * (1 + amplitude * sin(2*pi*t /
    period))``, generated by thinning a homogeneous process at the envelope
    peak.  ``period_s`` is in *simulated* seconds (the simulator's diurnal
    "day" — scaled down like every other workload dimension).
    """

    name = "diurnal"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 0,
        amplitude: float = 0.8,
        period_s: float = 0.1,
    ) -> None:
        super().__init__(rate_rps, seed)
        if not (0.0 < amplitude < 1.0):
            raise ValueError(f"amplitude must be in (0, 1), got {amplitude}")
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)

    def rate_at(self, t_ns: float) -> float:
        """Instantaneous rate (requests/s) at simulated time ``t_ns``."""
        phase = 2.0 * math.pi * t_ns / (self.period_s * 1e9)
        return self.rate_rps * (1.0 + self.amplitude * math.sin(phase))

    def _generate(self, n: int) -> np.ndarray:
        rng = self._rng()
        peak = self.rate_rps * (1.0 + self.amplitude)
        peak_gap_ns = 1e9 / peak
        times = np.empty(n)
        t = 0.0
        produced = 0
        while produced < n:
            t += rng.exponential(peak_gap_ns)
            if rng.random() * peak <= self.rate_at(t):
                times[produced] = t
                produced += 1
        return times


#: Registered open-loop arrival processes, selectable by name from the
#: sweep, the CLI (``atlahs inference --process``) and the facade.
ARRIVAL_PROCESSES = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


def arrival_process_names() -> List[str]:
    """Registered arrival process names, sorted."""
    return sorted(ARRIVAL_PROCESSES)


def build_arrival_process(
    name: str, rate_rps: float, seed: int = 0, **kwargs
) -> ArrivalProcess:
    """Instantiate a registered arrival process by name.

    Raises :class:`ValueError` for unknown names (listing the registry) and
    for invalid process parameters.
    """
    try:
        cls = ARRIVAL_PROCESSES[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {name!r}; "
            f"registered: {', '.join(arrival_process_names())}"
        ) from None
    return cls(rate_rps, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# tenants and requests
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving mix.

    Attributes
    ----------
    name:
        Tenant label (carried through to per-request metrics).
    weight:
        Relative share of the request mix (weights are normalised).
    prompt_tokens / decode_tokens:
        Mean prompt length and mean output length in tokens; per-request
        lengths are Poisson-distributed around the mean (minimum 1).
    """

    name: str
    weight: float = 1.0
    prompt_tokens: int = 128
    decode_tokens: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.prompt_tokens <= 0 or self.decode_tokens <= 0:
            raise ValueError(
                f"tenant {self.name!r}: prompt_tokens and decode_tokens must be positive"
            )


#: Default single-tenant mix (interactive chat-like requests).
DEFAULT_TENANTS = (TenantSpec("default"),)


@dataclass(frozen=True)
class Request:
    """One user request of the open-loop stream, fully resolved by the plan."""

    id: int
    tenant: str
    arrival_ns: int
    prompt_tokens: int
    decode_tokens: int
    frontend_rank: int
    prefill_rank: int
    decode_rank: int

    @property
    def first_token_group(self) -> int:
        """Op-group id whose finish time is this request's first-token delivery."""
        return 2 * self.id

    @property
    def completion_group(self) -> int:
        """Op-group id whose finish time is this request's last-token delivery.

        For single-token requests the first token *is* the completion and
        only :attr:`first_token_group` is populated.
        """
        return 2 * self.id + 1


# ---------------------------------------------------------------------------
# the serving cluster model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServingClusterConfig:
    """Shape and nominal costs of the disaggregated serving fleet.

    Ranks are laid out ``[frontends][prefill ranks][decode ranks]``; all
    sizes in bytes, all times in ns.

    Attributes
    ----------
    frontends / prefill_ranks / decode_ranks:
        Fleet shape.  Frontends inject prompts and receive token streams;
        prefill ranks run prompt compute; decode ranks run continuous
        batching.
    max_batch:
        Continuous-batching occupancy cap per decode rank: requests beyond
        it queue until a slot frees between decode iterations.
    bytes_per_prompt_token:
        Prompt payload shipped frontend → prefill, per prompt token.
    kv_bytes_per_token:
        KV-cache bytes shipped prefill → decode, per prompt token.
    token_bytes:
        Payload of each generated token message (decode → frontend).
    prefill_ns_per_token:
        Prefill compute per prompt token (serialised on the prefill rank).
    decode_step_base_ns / decode_step_per_seq_ns:
        Decode-iteration duration model: ``base + per_seq * batch_size``.
    """

    frontends: int = 1
    prefill_ranks: int = 2
    decode_ranks: int = 2
    max_batch: int = 8
    bytes_per_prompt_token: int = 512
    kv_bytes_per_token: int = 4096
    token_bytes: int = 512
    prefill_ns_per_token: int = 20_000
    decode_step_base_ns: int = 400_000
    decode_step_per_seq_ns: int = 50_000

    def __post_init__(self) -> None:
        for name in ("frontends", "prefill_ranks", "decode_ranks", "max_batch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "bytes_per_prompt_token",
            "kv_bytes_per_token",
            "token_bytes",
            "prefill_ns_per_token",
            "decode_step_base_ns",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.decode_step_per_seq_ns < 0:
            raise ValueError("decode_step_per_seq_ns must be non-negative")

    @property
    def num_ranks(self) -> int:
        return self.frontends + self.prefill_ranks + self.decode_ranks

    def prefill_rank_id(self, index: int) -> int:
        return self.frontends + index

    def decode_rank_id(self, index: int) -> int:
        return self.frontends + self.prefill_ranks + index

    def nominal_capacity_rps(self, tenants: Sequence[TenantSpec] = DEFAULT_TENANTS) -> float:
        """Back-of-envelope fleet capacity (requests/s) for a tenant mix.

        The minimum of prefill-compute throughput and full-batch decode
        throughput under the mix's mean token counts — the knee location
        the SLO benchmarks sweep across.
        """
        total = sum(t.weight for t in tenants)
        prompt = sum(t.weight * t.prompt_tokens for t in tenants) / total
        decode = sum(t.weight * t.decode_tokens for t in tenants) / total
        prefill_rps = self.prefill_ranks * 1e9 / (prompt * self.prefill_ns_per_token)
        step_ns = self.decode_step_base_ns + self.decode_step_per_seq_ns * self.max_batch
        decode_rps = self.decode_ranks * self.max_batch * 1e9 / (decode * step_ns)
        return min(prefill_rps, decode_rps)


@dataclass(frozen=True)
class DecodeStep:
    """One decode iteration of a decode rank's continuous-batching timeline.

    ``members`` lists the in-flight ``(request_id, token_index)`` pairs the
    step produces a token for; ``joins`` the requests admitted at this step
    boundary (whose KV-cache arrival gates the step in the GOAL DAG).
    """

    rank: int
    index: int
    duration_ns: int
    joins: Tuple[int, ...]
    members: Tuple[Tuple[int, int], ...]

    @property
    def batch_size(self) -> int:
        return len(self.members)


@dataclass
class InferencePlan:
    """A fully resolved inference-serving workload, ready to simulate.

    Attributes
    ----------
    schedule:
        The GOAL program of the serving timeline.
    op_groups:
        Per-rank op→group mapping for :func:`repro.scheduler.simulate`:
        group ``2i`` finishes when request ``i``'s first token reaches its
        frontend, group ``2i + 1`` when its last token does (absent for
        single-token requests).  Everything else is ungrouped (``-1``).
    requests:
        The sampled request stream in id (= arrival) order.
    cluster:
        The serving fleet shape and cost model.
    steps:
        Per decode rank, the continuous-batching timeline (the source of
        batch-occupancy statistics).
    process / rate_rps / seed:
        The arrival process coordinates that produced the stream.
    """

    schedule: GoalSchedule
    op_groups: List[List[int]]
    requests: List[Request]
    cluster: ServingClusterConfig
    steps: Dict[int, List[DecodeStep]]
    process: str
    rate_rps: float
    seed: int

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def offered_rps(self) -> float:
        """Offered load actually realised by the sampled arrival stream."""
        horizon = self.requests[-1].arrival_ns if self.requests else 0
        if horizon <= 0:
            return float("inf")
        return (len(self.requests) - 1) * 1e9 / horizon if len(self.requests) > 1 else float("inf")

    def batch_occupancy(self) -> Dict[str, float]:
        """Continuous-batching occupancy statistics across all decode steps.

        Returns mean/max occupancy and the total step count; the mean is
        request-step weighted (idle gaps between steps are not counted).
        """
        sizes = [s.batch_size for steps in self.steps.values() for s in steps]
        if not sizes:
            return {"steps": 0.0, "mean_batch": 0.0, "max_batch": 0.0}
        return {
            "steps": float(len(sizes)),
            "mean_batch": sum(sizes) / len(sizes),
            "max_batch": float(max(sizes)),
        }


# ---------------------------------------------------------------------------
# request sampling and the nominal continuous-batching engine
# ---------------------------------------------------------------------------
def _sample_requests(
    num_requests: int,
    arrival_ns: np.ndarray,
    tenants: Sequence[TenantSpec],
    cluster: ServingClusterConfig,
    seed: int,
) -> List[Request]:
    """Draw the tenant mix and token counts; assign frontend/prefill/decode ranks.

    Prefill ranks are chosen by earliest nominal finish (a least-loaded
    dispatcher), decode ranks round-robin, frontends round-robin — all
    deterministic for a fixed seed.
    """
    rng = np.random.default_rng((0xA11A, seed))
    weights = np.array([t.weight for t in tenants], dtype=float)
    weights /= weights.sum()
    tenant_idx = rng.choice(len(tenants), size=num_requests, p=weights)

    prefill_free = [0.0] * cluster.prefill_ranks
    requests: List[Request] = []
    for rid in range(num_requests):
        tenant = tenants[int(tenant_idx[rid])]
        prompt = int(rng.poisson(max(0, tenant.prompt_tokens - 1))) + 1
        decode = int(rng.poisson(max(0, tenant.decode_tokens - 1))) + 1
        arrival = int(arrival_ns[rid])
        # least-loaded prefill dispatch under the nominal compute model
        pf = min(range(cluster.prefill_ranks), key=lambda i: (prefill_free[i], i))
        start = max(float(arrival), prefill_free[pf])
        prefill_free[pf] = start + prompt * cluster.prefill_ns_per_token
        requests.append(
            Request(
                id=rid,
                tenant=tenant.name,
                arrival_ns=arrival,
                prompt_tokens=prompt,
                decode_tokens=decode,
                frontend_rank=rid % cluster.frontends,
                prefill_rank=cluster.prefill_rank_id(pf),
                decode_rank=cluster.decode_rank_id(rid % cluster.decode_ranks),
            )
        )
    return requests


def _plan_decode_steps(
    requests: Sequence[Request], cluster: ServingClusterConfig
) -> Dict[int, List[DecodeStep]]:
    """Lay out each decode rank's continuous-batching timeline.

    The engine runs in *nominal* time (arrival + nominal prefill finish as
    the admission-eligibility time): requests queue FIFO per decode rank,
    join the next step boundary while a batch slot is free, produce one
    token per step, and leave after their last token.  The emitted GOAL DAG
    enforces the *actual* gating (a step cannot start before the KV caches
    of its joiners arrived), so the nominal engine only fixes the
    *structure*; simulated timing comes from the backend.
    """
    # nominal prefill completion per request (mirrors _sample_requests)
    prefill_free: Dict[int, float] = {}
    eligible: Dict[int, float] = {}
    for req in requests:
        start = max(float(req.arrival_ns), prefill_free.get(req.prefill_rank, 0.0))
        end = start + req.prompt_tokens * cluster.prefill_ns_per_token
        prefill_free[req.prefill_rank] = end
        eligible[req.id] = end

    by_decode: Dict[int, List[Request]] = {}
    for req in requests:
        by_decode.setdefault(req.decode_rank, []).append(req)

    steps: Dict[int, List[DecodeStep]] = {}
    for rank, queue in by_decode.items():
        queue = sorted(queue, key=lambda r: (eligible[r.id], r.id))
        pending = list(queue)
        active: List[Request] = []  # join order
        tokens_done: Dict[int, int] = {}
        timeline: List[DecodeStep] = []
        t = 0.0
        while pending or active:
            if not active:
                t = max(t, eligible[pending[0].id])
            joins: List[int] = []
            while pending and eligible[pending[0].id] <= t and len(active) < cluster.max_batch:
                req = pending.pop(0)
                active.append(req)
                tokens_done[req.id] = 0
                joins.append(req.id)
            duration = (
                cluster.decode_step_base_ns
                + cluster.decode_step_per_seq_ns * len(active)
            )
            members = tuple((r.id, tokens_done[r.id]) for r in active)
            timeline.append(
                DecodeStep(
                    rank=rank,
                    index=len(timeline),
                    duration_ns=int(duration),
                    joins=tuple(joins),
                    members=members,
                )
            )
            t += duration
            still_active: List[Request] = []
            for r in active:
                tokens_done[r.id] += 1
                if tokens_done[r.id] < r.decode_tokens:
                    still_active.append(r)
            active = still_active
        steps[rank] = timeline
    return steps


# ---------------------------------------------------------------------------
# GOAL emission
# ---------------------------------------------------------------------------
def _emit_schedule(
    requests: Sequence[Request],
    steps: Dict[int, List[DecodeStep]],
    cluster: ServingClusterConfig,
    name: str,
) -> Tuple[GoalSchedule, List[List[int]]]:
    """Emit the serving timeline as a GOAL DAG plus its op-group mapping."""
    builder = GoalBuilder(cluster.num_ranks, name=name)
    groups: List[List[int]] = [[] for _ in range(cluster.num_ranks)]

    def _track(rank: int, handle: int, group: int = -1) -> int:
        # ops are appended strictly in emission order per rank, so the
        # group list mirrors the rank's op list index for index
        assert handle == len(groups[rank])
        groups[rank].append(group)
        return handle

    kv_recv: Dict[int, int] = {}  # request id -> KV recv handle on its decode rank
    for req in requests:
        fe, pf, de = req.frontend_rank, req.prefill_rank, req.decode_rank
        stream = 1 + req.id  # private frontend stream: arrivals never serialise
        prompt_bytes = req.prompt_tokens * cluster.bytes_per_prompt_token
        kv_bytes = req.prompt_tokens * cluster.kv_bytes_per_token
        tag = req.id * TAG_BLOCK

        frontend = builder.rank(fe)
        arrival = _track(fe, frontend.calc(req.arrival_ns, cpu=stream))
        _track(fe, frontend.send(prompt_bytes, dst=pf, tag=tag, cpu=stream, requires=(arrival,)))

        prefill = builder.rank(pf)
        prompt_in = _track(pf, prefill.recv(prompt_bytes, src=fe, tag=tag))
        compute = _track(
            pf,
            prefill.calc(req.prompt_tokens * cluster.prefill_ns_per_token, requires=(prompt_in,)),
        )
        _track(pf, prefill.send(kv_bytes, dst=de, tag=tag + 1, requires=(compute,)))
        kv_recv[req.id] = _track(de, builder.rank(de).recv(kv_bytes, src=pf, tag=tag + 1))

    by_id = {req.id: req for req in requests}
    for rank, timeline in sorted(steps.items()):
        decode = builder.rank(rank)
        prev: Optional[int] = None
        for step in timeline:
            deps = [kv_recv[rid] for rid in step.joins]
            if prev is not None:
                deps.append(prev)
            prev = _track(rank, decode.calc(step.duration_ns, requires=deps))
            for rid, token in step.members:
                req = by_id[rid]
                tag = rid * TAG_BLOCK + 2 + token
                _track(
                    rank,
                    decode.send(
                        cluster.token_bytes, dst=req.frontend_rank, tag=tag, requires=(prev,)
                    ),
                )
                if token == 0:
                    group = req.first_token_group
                elif token == req.decode_tokens - 1:
                    group = req.completion_group
                else:
                    group = -1
                _track(
                    req.frontend_rank,
                    builder.rank(req.frontend_rank).recv(
                        cluster.token_bytes, src=rank, tag=tag, cpu=1 + rid
                    ),
                    group,
                )

    schedule = builder.build()
    for rank_sched, rank_groups in zip(schedule.ranks, groups):
        assert len(rank_groups) == len(rank_sched)
    return schedule, groups


# ---------------------------------------------------------------------------
# the public entry point
# ---------------------------------------------------------------------------
def build_inference_workload(
    num_requests: int = 64,
    rate_rps: float = 400.0,
    process: str = "poisson",
    tenants: Optional[Sequence[TenantSpec]] = None,
    cluster: Optional[ServingClusterConfig] = None,
    seed: int = 0,
    name: Optional[str] = None,
    **process_kwargs,
) -> InferencePlan:
    """Generate an inference-serving GOAL workload.

    Parameters
    ----------
    num_requests:
        Open-loop requests to generate (the stream is *open loop*: arrivals
        never wait for earlier requests to finish, so overload manifests as
        queueing, exactly like production serving).
    rate_rps:
        Offered load in requests per (simulated) second.
    process:
        Arrival process name (see :data:`ARRIVAL_PROCESSES`); extra keyword
        arguments are forwarded to the process constructor (e.g.
        ``burst_factor=`` for ``bursty``, ``period_s=`` for ``diurnal``).
    tenants:
        The tenant mix (defaults to a single interactive tenant).
    cluster:
        Serving fleet shape and nominal cost model.
    seed:
        Master seed of the arrival draw and the request sampling; equal
        seeds give bit-identical plans.
    name:
        Schedule name (defaults to ``inference-<process>-<n>r``).

    Returns
    -------
    InferencePlan
        The schedule, per-request op groups, request records and the
        continuous-batching timeline.  Simulate with::

            result = simulate(plan.schedule, backend="htsim",
                              config=config, op_groups=plan.op_groups)
            metrics = compute_serving_metrics(plan, result)
    """
    cluster = cluster if cluster is not None else ServingClusterConfig()
    tenant_list = list(tenants) if tenants else list(DEFAULT_TENANTS)
    seen = set()
    for tenant in tenant_list:
        if tenant.name in seen:
            raise ValueError(f"duplicate tenant name {tenant.name!r}")
        seen.add(tenant.name)

    arrival_ns = build_arrival_process(
        process, rate_rps, seed=seed, **process_kwargs
    ).arrival_times_ns(num_requests)
    requests = _sample_requests(num_requests, arrival_ns, tenant_list, cluster, seed)
    steps = _plan_decode_steps(requests, cluster)
    schedule, op_groups = _emit_schedule(
        requests,
        steps,
        cluster,
        name or f"inference-{process}-{num_requests}r",
    )
    return InferencePlan(
        schedule=schedule,
        op_groups=op_groups,
        requests=list(requests),
        cluster=cluster,
        steps=steps,
        process=process,
        rate_rps=float(rate_rps),
        seed=int(seed),
    )
