"""Smoke test of the end-to-end benchmark: tiny sizes, one timed repetition each."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_smoke_run_matches_benchmark_json(tmp_path):
    out = tmp_path / "smoke.json"
    done = run("run.py", "--smoke", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == [w["name"] for w in SPEC["workloads"]]
    expected = [m["name"] for m in SPEC["end_to_end"]] + ["failed_share"]
    for name, record in workloads.items():
        assert list(record["metrics"]) == expected, name
        assert record["metrics"]["failed_share"]["value"] == 0, record["errors"]
        # the timed repetition repeated the digest of the warm-up before it
        assert record["attempted"] > 0 and all(r["ok"] for r in record["reps"]), name
        assert record["digest"], name

    same = run("compare.py", str(out), str(out))
    assert same.returncode == 0, same.stdout
    statuses = {line.split()[-1] for line in same.stdout.splitlines()[1:]}
    assert statuses == {"ok"}


def test_single_workload_prints_the_contract_line(tmp_path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run(
            "run.py", "--smoke", "--workload", "goal_ingest_hpc", "--trace", trace,
            "--out", str(tmp_path / "one.json"),
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
