"""Compare two result files of ``run.py``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base of every ratio.  A row is ``regressed`` when B's median is worse
than A's by more than the metric's bound in BENCHMARK.json (``failed_share`` is
not listed there, because it is 0: any increase regresses), and ``unresolved``
when either file's own samples spread wider than the bound, so the two medians
cannot be told apart.  Exit status 1 on any ``regressed``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range over the median; ``None`` below four samples."""
    if len(values) < 4 or not median(values):
        return None
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    bounded["failed_share"] = {"better": "lower", "bound": 0.0}
    rows = []
    for workload, record in a["workloads"].items():
        theirs = b["workloads"].get(workload, {"metrics": {}})["metrics"]
        for name, ours in record["metrics"].items():
            if name not in theirs:
                continue
            base, new = ours["value"], theirs[name]["value"]
            if base:
                ratio = new / base
            else:
                ratio = 1.0 if new == base else float("inf")
            spreads = [spread(m.get("samples", [])) for m in (ours, theirs[name])]
            rule = bounded.get(name)
            if rule is None:
                status, bound = "info", None  # per-layer metrics have no bound
            else:
                bound = rule["bound"]
                worse = ratio - 1 if rule["better"] == "lower" else 1 - ratio
                if any(s is not None and s > bound for s in spreads):
                    status = "unresolved"
                else:
                    status = "regressed" if worse > bound else "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": base,
                    "b": new,
                    "ratio": ratio,
                    "bound": bound,
                    "spreads": spreads,
                    "status": status,
                }
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print(f"{'workload':<28} {'metric':<26} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6} {'spread A/B':>13}  status")
    for r in rows:
        shown = "/".join("-" if s is None else f"{s:.3f}" for s in r["spreads"])
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        print(
            f"{r['workload']:<28} {r['metric']:<26} {r['a']:>12.6g} {r['b']:>12.6g} "
            f"{r['ratio']:>7.3f} {bound:>6} {shown:>13}  {r['status']}"
        )
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
