"""SPC block-I/O trace → GOAL for the Azure Direct Drive architecture.

The paper's storage support (§3.1.3 / Fig. 6) replays block-level I/O traces
against a model of Microsoft's Direct Drive disaggregated block store.  The
service roles modelled here, following the paper's Fig. 6 and the public
description it cites:

* **VDC / client node** — the VM host whose virtual-disk client issues the
  block requests recorded in the SPC trace,
* **CCS** (Change Coordinator Service) — tells the client which BSS holds
  the addressed block range (consulted once per request),
* **BSS** (Block Storage Service) — stores the data; reads return the
  requested bytes, writes are replicated to ``replication_factor`` BSS
  instances before being acknowledged,
* **MDS** (Metadata Service) — consulted periodically (every
  ``metadata_every`` requests per client) for slice-map refreshes,
* **GS / SLB** (Gateway Service / Software Load Balancer) — contacted once
  per client at session setup.

Each request becomes a small DAG: the client pays the recorded inter-arrival
gap as a ``calc`` (so the traced arrival process is preserved), exchanges a
lookup with a CCS, then transfers data to/from a BSS.  Requests are issued
open-loop: a slow response does not delay the client's subsequent requests,
which is what the message-completion-time (MCT) analysis of Fig. 11 measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.goal.builder import GoalBuilder, RankBuilder
from repro.goal.schedule import GoalSchedule
from repro.tracers.storage import SpcRecord, SpcTrace

#: Size of control-plane messages (requests, lookups, acknowledgements).
CONTROL_BYTES = 256


@dataclass(frozen=True)
class DirectDriveConfig:
    """Shape of the simulated Direct Drive deployment.

    The default deployment (4 clients, 4 CCS, 8 BSS, 1 MDS, 1 GS, 1 SLB =
    19 ranks) fits one or two racks of the fat-tree topologies used in the
    storage case study.
    """

    num_clients: int = 4
    num_ccs: int = 4
    num_bss: int = 8
    replication_factor: int = 3
    metadata_every: int = 64
    ccs_service_ns: int = 2_000
    bss_service_ns: int = 10_000
    client_service_ns: int = 1_000
    timescale: float = 1.0
    #: Concurrent request-processing threads per service instance; each
    #: request's server-side work is placed on one of these compute streams so
    #: a storage server is not an artificial single-threaded bottleneck.
    server_threads: int = 8

    def __post_init__(self) -> None:
        if min(self.num_clients, self.num_ccs, self.num_bss) <= 0:
            raise ValueError("num_clients, num_ccs and num_bss must be positive")
        if self.replication_factor < 1 or self.replication_factor > self.num_bss:
            raise ValueError("replication_factor must be in [1, num_bss]")
        if self.metadata_every <= 0:
            raise ValueError("metadata_every must be positive")
        if self.timescale <= 0:
            raise ValueError("timescale must be positive")
        if self.server_threads <= 0:
            raise ValueError("server_threads must be positive")

    # -- rank layout --------------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return self.num_clients + self.num_ccs + self.num_bss + 3  # + MDS, GS, SLB

    def client_rank(self, i: int) -> int:
        return i % self.num_clients

    def ccs_rank(self, i: int) -> int:
        return self.num_clients + (i % self.num_ccs)

    def bss_rank(self, i: int) -> int:
        return self.num_clients + self.num_ccs + (i % self.num_bss)

    @property
    def mds_rank(self) -> int:
        return self.num_clients + self.num_ccs + self.num_bss

    @property
    def gs_rank(self) -> int:
        return self.mds_rank + 1

    @property
    def slb_rank(self) -> int:
        return self.mds_rank + 2

    def role_of(self, rank: int) -> str:
        """Human-readable role of a rank (used in reports and tests)."""
        if rank < self.num_clients:
            return f"client{rank}"
        if rank < self.num_clients + self.num_ccs:
            return f"ccs{rank - self.num_clients}"
        if rank < self.num_clients + self.num_ccs + self.num_bss:
            return f"bss{rank - self.num_clients - self.num_ccs}"
        return {self.mds_rank: "mds", self.gs_rank: "gs", self.slb_rank: "slb"}[rank]


class DirectDriveScheduleGenerator:
    """Builds the GOAL schedule replaying an SPC trace against Direct Drive."""

    def __init__(self, trace: SpcTrace, config: Optional[DirectDriveConfig] = None) -> None:
        self.trace = trace
        self.config = config or DirectDriveConfig()
        self._next_tag = 1

    def _tag(self) -> int:
        tag = self._next_tag
        self._next_tag += 1
        return tag

    # ------------------------------------------------------------------ public
    def generate(self, name: Optional[str] = None) -> GoalSchedule:
        cfg = self.config
        builder = GoalBuilder(cfg.num_ranks, name=name or f"direct-drive-{self.trace.name}")

        self._session_setup(builder)

        # per-client open-loop arrival chain (the last arrival calc per client)
        arrival_chain: Dict[int, Optional[int]] = {c: None for c in range(cfg.num_clients)}
        last_ts: Dict[int, float] = {c: self.trace.records[0].timestamp if len(self.trace) else 0.0
                                     for c in range(cfg.num_clients)}
        requests_seen: Dict[int, int] = {c: 0 for c in range(cfg.num_clients)}

        for i, record in enumerate(self.trace):
            client = cfg.client_rank(record.asu)
            gap_ns = max(0, int(round((record.timestamp - last_ts[client]) * 1e9 * cfg.timescale)))
            last_ts[client] = record.timestamp
            cb = builder.rank(client)
            prev = arrival_chain[client]
            arrival = cb.calc(gap_ns, requires=(prev,) if prev is not None else ())
            arrival_chain[client] = arrival

            thread = i % cfg.server_threads
            self._emit_request(builder, i, record, client, arrival, thread)

            requests_seen[client] += 1
            if requests_seen[client] % cfg.metadata_every == 0:
                self._emit_metadata_refresh(builder, client, arrival, thread)

        return builder.build()

    # --------------------------------------------------------------- internals
    def _session_setup(self, builder: GoalBuilder) -> None:
        """Initial GS / SLB handshake performed once per client."""
        cfg = self.config
        for client in range(cfg.num_clients):
            cb = builder.rank(client)
            tag = self._tag()
            s = cb.send(CONTROL_BYTES, dst=cfg.slb_rank, tag=tag)
            slb = builder.rank(cfg.slb_rank)
            r = slb.recv(CONTROL_BYTES, src=client, tag=tag)
            fwd_tag = self._tag()
            fwd = slb.send(CONTROL_BYTES, dst=cfg.gs_rank, tag=fwd_tag, requires=(r,))
            gs = builder.rank(cfg.gs_rank)
            gr = gs.recv(CONTROL_BYTES, src=cfg.slb_rank, tag=fwd_tag)
            reply_tag = self._tag()
            gs.send(CONTROL_BYTES, dst=client, tag=reply_tag, requires=(gr,))
            cb.recv(CONTROL_BYTES, src=cfg.gs_rank, tag=reply_tag, requires=(s,))

    def _emit_request(
        self, builder: GoalBuilder, index: int, record: SpcRecord, client: int, arrival: int, thread: int
    ) -> None:
        cfg = self.config
        cb = builder.rank(client)
        ccs = cfg.ccs_rank(record.lba >> 12)
        primary_bss = cfg.bss_rank(record.lba >> 8)

        # 1. client -> CCS lookup, CCS -> client response
        lookup_tag = self._tag()
        reply_tag = self._tag()
        lookup = cb.send(CONTROL_BYTES, dst=ccs, tag=lookup_tag, cpu=thread, requires=(arrival,))
        ccs_b = builder.rank(ccs)
        ccs_recv = ccs_b.recv(CONTROL_BYTES, src=client, tag=lookup_tag, cpu=thread)
        ccs_work = ccs_b.calc(cfg.ccs_service_ns, cpu=thread, requires=(ccs_recv,))
        ccs_b.send(CONTROL_BYTES, dst=client, tag=reply_tag, cpu=thread, requires=(ccs_work,))
        ccs_reply = cb.recv(CONTROL_BYTES, src=ccs, tag=reply_tag, cpu=thread, requires=(lookup,))

        if record.is_read:
            self._emit_read(builder, record, client, primary_bss, ccs_reply, thread)
        else:
            self._emit_write(builder, record, client, primary_bss, ccs_reply, thread)

    def _emit_read(
        self, builder: GoalBuilder, record: SpcRecord, client: int, bss: int, after: int, thread: int
    ) -> None:
        cfg = self.config
        cb = builder.rank(client)
        req_tag = self._tag()
        data_tag = self._tag()
        req = cb.send(CONTROL_BYTES, dst=bss, tag=req_tag, cpu=thread, requires=(after,))
        bss_b = builder.rank(bss)
        bss_recv = bss_b.recv(CONTROL_BYTES, src=client, tag=req_tag, cpu=thread)
        bss_work = bss_b.calc(cfg.bss_service_ns, cpu=thread, requires=(bss_recv,))
        bss_b.send(record.size, dst=client, tag=data_tag, cpu=thread, requires=(bss_work,))
        data = cb.recv(record.size, src=bss, tag=data_tag, cpu=thread, requires=(req,))
        cb.calc(cfg.client_service_ns, cpu=thread, requires=(data,))

    def _emit_write(
        self, builder: GoalBuilder, record: SpcRecord, client: int, primary: int, after: int, thread: int
    ) -> None:
        cfg = self.config
        cb = builder.rank(client)
        data_tag = self._tag()
        ack_tag = self._tag()

        data = cb.send(record.size, dst=primary, tag=data_tag, cpu=thread, requires=(after,))
        pb = builder.rank(primary)
        p_recv = pb.recv(record.size, src=client, tag=data_tag, cpu=thread)
        p_work = pb.calc(cfg.bss_service_ns, cpu=thread, requires=(p_recv,))

        # replicate to the next replication_factor - 1 BSS instances
        replica_acks: List[int] = []
        primary_index = primary - cfg.num_clients - cfg.num_ccs
        for r in range(1, cfg.replication_factor):
            replica = cfg.bss_rank(primary_index + r)
            if replica == primary:
                continue
            rep_tag = self._tag()
            rep_ack_tag = self._tag()
            pb.send(record.size, dst=replica, tag=rep_tag, cpu=thread, requires=(p_work,))
            rb = builder.rank(replica)
            rr = rb.recv(record.size, src=primary, tag=rep_tag, cpu=thread)
            rw = rb.calc(cfg.bss_service_ns, cpu=thread, requires=(rr,))
            rb.send(CONTROL_BYTES, dst=primary, tag=rep_ack_tag, cpu=thread, requires=(rw,))
            replica_acks.append(pb.recv(CONTROL_BYTES, src=replica, tag=rep_ack_tag, cpu=thread, requires=(p_work,)))

        ack_deps = (p_work, *replica_acks)
        pb.send(CONTROL_BYTES, dst=client, tag=ack_tag, cpu=thread, requires=ack_deps)
        ack = cb.recv(CONTROL_BYTES, src=primary, tag=ack_tag, cpu=thread, requires=(data,))
        cb.calc(cfg.client_service_ns, cpu=thread, requires=(ack,))

    def _emit_metadata_refresh(self, builder: GoalBuilder, client: int, after: int, thread: int) -> None:
        cfg = self.config
        cb = builder.rank(client)
        req_tag = self._tag()
        reply_tag = self._tag()
        req = cb.send(CONTROL_BYTES, dst=cfg.mds_rank, tag=req_tag, cpu=thread, requires=(after,))
        mds = builder.rank(cfg.mds_rank)
        mr = mds.recv(CONTROL_BYTES, src=client, tag=req_tag, cpu=thread)
        mw = mds.calc(cfg.ccs_service_ns, cpu=thread, requires=(mr,))
        mds.send(4096, dst=client, tag=reply_tag, cpu=thread, requires=(mw,))
        cb.recv(4096, src=cfg.mds_rank, tag=reply_tag, cpu=thread, requires=(req,))


def storage_trace_to_goal(
    trace: SpcTrace, config: Optional[DirectDriveConfig] = None, name: Optional[str] = None
) -> GoalSchedule:
    """Convenience wrapper around :class:`DirectDriveScheduleGenerator`."""
    return DirectDriveScheduleGenerator(trace, config=config).generate(name=name)
