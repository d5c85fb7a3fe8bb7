"""One workload in one fresh process: cold start, set-up, warm-up, repetitions.

Started by :mod:`run` (never by hand) as

    python child.py <mode> <workload> <seed> <seconds> <smoke> <spawned_at>

and prints one JSON object as the last line of its standard output.  Modes:

``setup``    set up and exit: one more ``setup_s`` sample.
``measure``  set up, one warm-up repetition, then untraced repetitions until
             ``seconds`` of them have been timed, and at least ``MIN_REPS``.
``trace``    set up, warm up, then an untraced and a traced repetition in turn
             for ``seconds``, the side measurements, ``out/trace_<workload>.json``.

``spawned_at`` is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so the set-up time
covers process start and ``import repro`` as well.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List

from spans import REP, Tracer
from workloads import WORKLOADS

MIN_REPS = 5
OUT = Path(__file__).resolve().parent / "out"


def repetition(workload, tr, errors: List[str]) -> Dict[str, object]:
    """Run the timed operation once; a raised exception leaves ``digest`` None."""
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with tr.span(REP):
            digest = workload.run(tr)
    except Exception:  # the run goes on and reports the failure
        errors.append(traceback.format_exc())
        digest = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "digest": digest}


def main(argv: List[str]) -> int:
    mode, name, seed, seconds, smoke, spawned_at = argv
    seed, seconds, smoke = int(seed), float(seconds), smoke == "1"
    workload = next(w for w in WORKLOADS if w.name == name)
    tracer = Tracer(name, enabled=mode == "trace")
    workload.setup(seed, smoke, tracer)
    out: Dict[str, object] = {"setup_s": time.monotonic() - float(spawned_at)}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    workload.expect()

    untraced = Tracer(name, enabled=False)
    errors: List[str] = []
    # the warm-up fills caches and fixes the digest every later repetition must repeat
    reference = repetition(workload, untraced, errors)["digest"]
    reps: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    min_reps = 1 if smoke else 2 if mode == "trace" else MIN_REPS
    timed = 0.0
    while len(reps) < min_reps or timed < seconds:
        reps.append(repetition(workload, untraced, errors))
        timed += reps[-1]["wall_s"]
        if mode == "trace":
            tracer.rep = len(traced)
            traced.append(repetition(workload, tracer, errors))
            tracer.rep = None
            timed += traced[-1]["wall_s"]

    # a repetition that raised, or whose simulated statistics differ from the
    # warm-up's, fails every operation it attempted
    for rep in reps + traced:
        digest = rep.pop("digest")
        rep["ok"] = digest is not None and digest == reference
        if digest is not None and not rep["ok"]:
            errors.append(f"digest differs from the warm-up's: {digest}")
    run_wall_s = median(r["wall_s"] for r in reps)
    out.update(
        reps=reps,
        attempted=workload.units * len(reps + traced),
        failed=workload.units * sum(not r["ok"] for r in reps + traced),
        digest=reference,
        errors=errors,
    )

    if mode == "trace" and reference is not None:
        layers = workload.side(tracer, run_wall_s, reference)
        layers.update(workload.counts(reference))
        secs = tracer.seconds()
        layers.update({f"{k}_s": v for k, v in secs.items() if "." in k})
        if "schedgen.ops" in layers:
            layers["schedgen.ops_per_s"] = layers["schedgen.ops"] / secs["schedgen.convert"]
        if "backend.events" in layers:
            layers["backend.events_per_s"] = layers["backend.events"] / secs["backend.loop"]
            layers["backend.ns_per_event"] = 1e9 * secs["backend.loop"] / layers["backend.events"]
        if "sweep.cell" in secs:
            layers["sweep.parallel_efficiency"] = secs["sweep.cell"] / (2 * run_wall_s)
        traced_wall_s = median(r["wall_s"] for r in traced)
        layers["trace.overhead_ratio"] = (traced_wall_s - run_wall_s) / run_wall_s
        layers["trace.span_coverage"] = tracer.coverage()
        tracer.write(OUT / f"trace_{name}.json")
        out.update(layers=layers, self_seconds=tracer.self_seconds(), traced_reps=traced)

    usage = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    out["peak_rss_mb"] = max(usage) / 1024.0  # ru_maxrss is in KiB on Linux
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
