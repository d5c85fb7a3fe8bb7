"""SPC-format block-I/O traces and a Financial-like synthetic generator.

The paper traces block I/O with a bpftrace/eBPF tool and stores the result in
the SPC trace file format used by the UMass Trace Repository (§3.1.3); the
storage case study (Fig. 11) replays 5k operations drawn from the *Financial*
distribution of that repository.

An SPC trace record is ``ASU, LBA, size, opcode, timestamp`` — application
storage unit, logical block address, request size in bytes, ``r``/``w``, and
the request time in seconds.  This module provides:

* :class:`SpcRecord` / :class:`SpcTrace` — the format, with the standard
  comma-separated serialisation,
* :class:`FinancialWorkloadGenerator` — a synthetic generator matching the
  headline characteristics of the UMass Financial (OLTP) traces: small,
  write-dominated requests with heavy temporal burstiness,
* :func:`uniform_workload` — a simple uniform generator for ablations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

SECTOR_BYTES = 512


@dataclass(frozen=True)
class SpcRecord:
    """One SPC trace record (one block-I/O command)."""

    asu: int
    lba: int
    size: int
    opcode: str
    timestamp: float

    def __post_init__(self) -> None:
        if self.asu < 0 or self.lba < 0:
            raise ValueError("asu and lba must be non-negative")
        if self.size <= 0:
            raise ValueError("request size must be positive")
        if self.opcode not in ("r", "w"):
            raise ValueError(f"opcode must be 'r' or 'w', got {self.opcode!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")

    @property
    def is_read(self) -> bool:
        return self.opcode == "r"

    def to_line(self) -> str:
        return f"{self.asu},{self.lba},{self.size},{self.opcode},{self.timestamp:.6f}"

    @classmethod
    def from_line(cls, line: str) -> "SpcRecord":
        parts = line.strip().split(",")
        if len(parts) < 5:
            raise ValueError(f"malformed SPC record: {line!r}")
        return cls(
            asu=int(parts[0]),
            lba=int(parts[1]),
            size=int(parts[2]),
            opcode=parts[3].strip().lower(),
            timestamp=float(parts[4]),
        )


class SpcTrace:
    """An ordered collection of SPC records."""

    def __init__(self, records: Optional[Iterable[SpcRecord]] = None, name: str = "storage") -> None:
        self.name = name
        self.records: List[SpcRecord] = list(records) if records is not None else []

    def add(self, record: SpcRecord) -> None:
        if self.records and record.timestamp < self.records[-1].timestamp:
            raise ValueError("SPC records must be appended in timestamp order")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def reads(self) -> List[SpcRecord]:
        return [r for r in self.records if r.is_read]

    def writes(self) -> List[SpcRecord]:
        return [r for r in self.records if not r.is_read]

    def total_bytes(self) -> int:
        return sum(r.size for r in self.records)

    # ------------------------------------------------------------- serialisation
    def to_text(self) -> str:
        return "\n".join(r.to_line() for r in self.records) + ("\n" if self.records else "")

    @classmethod
    def from_text(cls, text: str, name: str = "storage") -> "SpcTrace":
        records = [SpcRecord.from_line(ln) for ln in text.splitlines() if ln.strip()]
        return cls(records, name=name)

    def to_file(self, path: str) -> int:
        data = self.to_text().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def from_file(cls, path: str) -> "SpcTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def size_bytes(self) -> int:
        return len(self.to_text().encode("utf-8"))


class FinancialWorkloadGenerator:
    """Synthetic stand-in for the UMass *Financial* OLTP traces.

    The published Financial1/Financial2 traces are dominated by small
    (0.5–16 KiB) requests, are write-heavy (~75% writes in Financial1), touch
    a small number of ASUs with skewed popularity, and arrive in bursts.  The
    generator reproduces those headline properties:

    * request sizes: log-normal around 4 KiB, clamped to [512 B, 256 KiB],
      rounded to sectors,
    * opcode mix: ``write_fraction`` writes,
    * arrivals: a bursty process (exponential gaps within a burst, longer
      exponential gaps between bursts),
    * LBAs: Zipf-like popularity over a configurable number of hot regions.
    """

    def __init__(
        self,
        write_fraction: float = 0.75,
        mean_size_bytes: int = 4096,
        burst_length: int = 16,
        intra_burst_gap_us: float = 20.0,
        inter_burst_gap_us: float = 400.0,
        num_asus: int = 8,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if mean_size_bytes < SECTOR_BYTES:
            raise ValueError("mean_size_bytes must be at least one sector")
        if burst_length <= 0 or num_asus <= 0:
            raise ValueError("burst_length and num_asus must be positive")
        self.write_fraction = write_fraction
        self.mean_size_bytes = mean_size_bytes
        self.burst_length = burst_length
        self.intra_burst_gap_us = intra_burst_gap_us
        self.inter_burst_gap_us = inter_burst_gap_us
        self.num_asus = num_asus
        self.rng = np.random.default_rng(seed)

    def generate(self, num_operations: int, name: str = "financial-like") -> SpcTrace:
        """Generate ``num_operations`` SPC records."""
        if num_operations <= 0:
            raise ValueError("num_operations must be positive")
        rng = self.rng
        # sizes: log-normal around the mean, clamped, sector aligned
        sigma = 0.8
        mu = np.log(self.mean_size_bytes) - sigma * sigma / 2.0
        sizes = np.exp(rng.normal(mu, sigma, size=num_operations))
        sizes = np.clip(sizes, SECTOR_BYTES, 256 * 1024)
        sizes = (np.ceil(sizes / SECTOR_BYTES) * SECTOR_BYTES).astype(np.int64)

        is_write = rng.random(num_operations) < self.write_fraction

        # Zipf-like ASU popularity
        weights = 1.0 / np.arange(1, self.num_asus + 1)
        weights /= weights.sum()
        asus = rng.choice(self.num_asus, size=num_operations, p=weights)

        lbas = rng.integers(0, 1 << 30, size=num_operations)

        # bursty arrivals
        timestamps = np.empty(num_operations, dtype=np.float64)
        t = 0.0
        in_burst = 0
        for i in range(num_operations):
            if in_burst == 0:
                t += rng.exponential(self.inter_burst_gap_us) * 1e-6
                in_burst = int(rng.integers(1, self.burst_length + 1))
            else:
                t += rng.exponential(self.intra_burst_gap_us) * 1e-6
            in_burst -= 1
            timestamps[i] = t

        trace = SpcTrace(name=name)
        for i in range(num_operations):
            trace.add(
                SpcRecord(
                    asu=int(asus[i]),
                    lba=int(lbas[i]),
                    size=int(sizes[i]),
                    opcode="w" if is_write[i] else "r",
                    timestamp=float(timestamps[i]),
                )
            )
        return trace


def uniform_workload(
    num_operations: int,
    size_bytes: int = 8192,
    interarrival_us: float = 100.0,
    read_fraction: float = 0.5,
    seed: int = 0,
    name: str = "uniform",
) -> SpcTrace:
    """A plain uniform workload (fixed size, Poisson arrivals) for ablations."""
    rng = np.random.default_rng(seed)
    trace = SpcTrace(name=name)
    t = 0.0
    for i in range(num_operations):
        t += rng.exponential(interarrival_us) * 1e-6
        trace.add(
            SpcRecord(
                asu=0,
                lba=int(rng.integers(0, 1 << 30)),
                size=size_bytes,
                opcode="r" if rng.random() < read_fraction else "w",
                timestamp=t,
            )
        )
    return trace
