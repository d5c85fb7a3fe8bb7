"""In-memory spans recorded from outside the program, around calls into its layers.

A span is ``{name, start, end, parent, workload, rep}``: ``parent`` is the
index of the enclosing span (``None`` at the top), ``rep`` the traced
repetition it belongs to (``None`` for set-up and side measurements).  Spans
are kept in a list and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional

#: Name of the span that wraps one whole traced repetition.
REP = "rep"


class Tracer:
    """Records nested spans; a disabled tracer records nothing and costs nothing."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.rep: Optional[int] = None
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    def span(self, name: str):
        """Context manager timing one call into a layer."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "rep": self.rep,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    # ------------------------------------------------------------- summaries
    def _per_name(self, secs: List[float]) -> Dict[str, float]:
        """``secs[i]`` belongs to span ``i``: sum within a repetition, median across."""
        per_rep: Dict[str, Dict[Optional[int], float]] = {}
        for s, value in zip(self.spans, secs):
            by_rep = per_rep.setdefault(s["name"], {})
            by_rep[s["rep"]] = by_rep.get(s["rep"], 0.0) + value
        return {name: median(by_rep.values()) for name, by_rep in per_rep.items()}

    def seconds(self) -> Dict[str, float]:
        """Seconds spent inside each span name."""
        return self._per_name([s["end"] - s["start"] for s in self.spans])

    def self_seconds(self) -> Dict[str, float]:
        """Like :meth:`seconds`, with the time covered by child spans taken out."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return self._per_name(own)

    def coverage(self) -> float:
        """Median share of a traced repetition that its layer spans account for."""
        shares = []
        for index, s in enumerate(self.spans):
            if s["name"] != REP:
                continue
            inside = sum(
                c["end"] - c["start"] for c in self.spans if c["parent"] == index
            )
            shares.append(inside / (s["end"] - s["start"]))
        return median(shares) if shares else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")
