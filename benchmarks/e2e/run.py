"""The repo's benchmark of record: end-to-end metrics per workload, measured from outside.

    python3 benchmarks/e2e/run.py --seed 0                    # every workload
    python3 benchmarks/e2e/run.py --seed 0 --trace            # per-layer spans instead
    python3 benchmarks/e2e/run.py --workload hpc_hpcg_lgs --seed 3 --seconds 10 --trace 0

This process only starts children and waits: each workload runs in fresh
``child.py`` processes, one after another, so no more than the workload's own
two processes are ever busy.  Every ``*_s`` metric is host seconds; simulated
time appears only in the digest.  See README.md for what each metric covers.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
EXPECTED = HERE / "expected_digests.json"
#: A whole invocation must end well inside the 180 s the benchmark contract allows.
DEADLINE_S = 170.0
#: Cold starts timed per workload, the measuring child included.
SETUP_SAMPLES = 3


class Children:
    """Starts ``child.py`` processes one at a time and makes sure none outlives us."""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.args = [str(seed), str(seconds), "1" if smoke else "0"]
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ, PYTHONHASHSEED="0")
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # a user's cold start finds compiled bytecode; keep ours inside out/
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
        self.env = env

    def run(self, mode: str, workload: str) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), mode, workload, *self.args]
        proc = subprocess.Popen(
            argv + [repr(time.monotonic())],
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own group, so its workers die with it
        )
        try:
            stdout, _ = proc.communicate(timeout=self.deadline - time.monotonic())
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: {mode} child exited with {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def workload_record(child: dict, metrics: dict, load_before: tuple) -> dict:
    """What a result file keeps per workload, noise record included."""
    kept = ("reps", "attempted", "failed", "digest", "errors")
    return {
        "metrics": metrics,
        **{key: child[key] for key in kept},
        "self_seconds": child.get("self_seconds", {}),
        "loadavg": [load_before, os.getloadavg()],
    }


def measure(children: Children, name: str, smoke: bool) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    load_before = os.getloadavg()
    child = children.run("measure", name)
    setups = [child["setup_s"]]
    while not smoke and len(setups) < SETUP_SAMPLES:
        setups.append(children.run("setup", name)["setup_s"])
    samples = {
        "run_wall_s": [r["wall_s"] for r in child["reps"]],
        "setup_s": setups,
        "peak_rss_mb": [child["peak_rss_mb"]],
        "failed_share": [child["failed"] / child["attempted"]],
    }
    metrics = {k: {"value": median(v), "n": len(v), "samples": v} for k, v in samples.items()}
    return workload_record(child, metrics, load_before)


def trace(children: Children, name: str, layer_names: List[str]) -> dict:
    """The traced run: every per-layer metric of one workload, 0 where a layer did no work."""
    load_before = os.getloadavg()
    child = children.run("trace", name)
    layers = child.get("layers", {})
    unknown = sorted(set(layers) - set(layer_names))
    if unknown:
        raise SystemExit(f"{name}: layer metrics missing from BENCHMARK.json: {unknown}")
    metrics = {k: {"value": layers.get(k, 0), "n": int(k in layers)} for k in layer_names}
    return workload_record(child, metrics, load_before)


def report(name: str, record: dict, units: Dict[str, str], digest_match: Optional[bool]) -> None:
    print(f"\n== {name}")
    for metric, m in record["metrics"].items():
        if not m["n"]:
            continue  # a layer this workload never enters
        line = f"  {metric:<28} {m['value']:>14.6g} {units.get(metric, 'ratio'):<6} n={m['n']}"
        values = m.get("samples", [])
        if len(values) >= 4:
            q1, _, q3 = quantiles(values, n=4)
            line += f"  min={min(values):.4g} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"
        print(line)
    for span, secs in sorted(record["self_seconds"].items()):
        print(f"  self time {span:<22} {secs:>10.4f} s")
    print(f"  attempted={record['attempted']} failed={record['failed']} digest_match={digest_match}")
    for error in record["errors"]:
        print(error, file=sys.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--only", choices=names, help="run this one only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    parser.add_argument("--out", type=Path, help="result file (default: out/result_*.json)")
    parser.add_argument(
        "--update-digests", action="store_true", help="rewrite expected_digests.json"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    shown = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[shown]}
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    comparable = args.seed == 0 and not args.smoke
    results: Dict[str, dict] = {}
    for name in [args.workload] if args.workload else names:
        # one deadline per workload: a single-workload call is what the contract bounds
        children = Children(args.seed, 0 if args.smoke else args.seconds, args.smoke)
        if args.trace:
            record = trace(children, name, list(units))
        else:
            record = measure(children, name, args.smoke)
        match = record["digest"] == expected.get(name) if comparable else None
        record["digest_match"] = match
        results[name] = record
        report(name, record, units, match)

    if args.update_digests:
        if not comparable or args.workload:
            raise SystemExit("--update-digests needs a full run with --seed 0")
        digests = {name: r["digest"] for name, r in results.items()}
        EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    document = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "workloads": results,
    }
    out = args.out or OUT / f"result_seed{args.seed}{'_trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")

    if args.workload:
        # the benchmark contract's last line: the metrics BENCHMARK.json names, no others
        record = results[args.workload]
        line = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": record["metrics"][k]["value"], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
