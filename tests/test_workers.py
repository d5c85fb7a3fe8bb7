"""The worker-process substrate (``repro.workers``) and its two users.

Sweeps (``parallel=N``) and the sharded packet engine (``shards=N``) run on
the same :class:`~repro.workers.Workers`.  Held here:

* a worker that dies in a sweep cell or in a shard raises one
  :class:`~repro.workers.WorkerError` naming that cell or shard and its
  exit code, and nothing is rerun in this process;
* any other exception from a worker arrives with its own type;
* where processes cannot start, the error says how to run in-process;
* the payload rides the pool initializer: under ``fork`` an unpicklable one
  works, under ``spawn`` it is pickled (and a sharded run matches fork);
* results come back in grid order, and no worker outlives the call;
* a tripwire keeps process pools and their fallbacks out of the rest of
  ``src/``.

This file runs in the CI flake-guard job under two PYTHONHASHSEEDs.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import multiprocessing
import os
import pickle
import re
import time
from pathlib import Path

import pytest

from repro.collectives import build_collective_schedule
from repro.network import NetworkPartitionError, SimulationConfig
from repro.network.packet import sharded
from repro.network.packet.sharded import run_sharded
from repro.scheduler import GoalScheduler
from repro.schedgen import all_to_all
from repro.sweep import _execute_cells, resilience_sweep
from repro.workers import WorkerError, Workers

_PARENT = os.getpid()
_UNPICKLABLE = lambda: 7  # noqa: E731 - a lambda is what pickle refuses


def _in_parent(runs: list, item) -> bool:
    """Record ``item`` when run in the test process (a serial rerun would)."""
    if os.getpid() == _PARENT:
        runs.append(item)
        return True
    return False


_RERUNS: list = []


def _cell_3_dies(cell):
    if not _in_parent(_RERUNS, cell) and cell == 3:
        os._exit(3)
    return cell * 10


def _slower_first(cell):
    time.sleep(0.02 * (5 - cell))
    return cell, os.getpid()


def _call_payload(state):
    return state.payload()


def _no_children():
    return multiprocessing.active_children() == []


def _allreduce():
    return build_collective_schedule(
        "allreduce", "recursive_doubling", 16, 4096, name="workers"
    )


_SHARDED = SimulationConfig(
    topology="fat_tree", routing="minimal", cc_algorithm="mprdma", shards=2
)


@contextlib.contextmanager
def _default_start_method(method):
    """Make ``method`` the platform default the substrate starts workers with."""
    before = multiprocessing.get_start_method()
    multiprocessing.set_start_method(method, force=True)
    try:
        yield
    finally:
        multiprocessing.set_start_method(before, force=True)


# ------------------------------------------------------------------ deaths
def test_dead_sweep_worker_names_its_cell_and_nothing_reruns():
    _RERUNS.clear()
    with pytest.raises(WorkerError, match=r"^sweep cell 3: .*exit code 3\)$"):
        _execute_cells(_cell_3_dies, list(range(6)), parallel=2)
    assert _RERUNS == []
    assert _no_children()


def test_dead_shard_worker_names_its_shard_and_nothing_reruns(monkeypatch):
    reruns = []
    advance = sharded.ShardPacketBackend.advance_window

    def dies_on_shard_1(self, *args):
        if not _in_parent(reruns, self.shard_id) and self.shard_id == 1:
            os._exit(5)
        return advance(self, *args)

    monkeypatch.setattr(sharded.ShardPacketBackend, "advance_window", dies_on_shard_1)
    with pytest.raises(WorkerError, match=r"^shard 1: .*exit code 5\)$"):
        run_sharded(_allreduce(), _SHARDED)
    assert reruns == []
    assert _no_children()


def test_worker_exception_keeps_its_type():
    config = SimulationConfig(topology="fat_tree", nodes_per_tor=2)
    with pytest.raises(NetworkPartitionError, match="no surviving route"):
        resilience_sweep(
            all_to_all(8, 1 << 12), {"ft": config}, failure_rates=(0.5,), parallel=2
        )
    assert _no_children()


def test_processes_that_cannot_start_fail_with_the_in_process_setting(monkeypatch):
    class NoSemaphores:
        def __init__(self, *args, **kwargs):
            raise NotImplementedError("no POSIX semaphores here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoSemaphores)
    with pytest.raises(WorkerError, match=r"no POSIX semaphores.*pass parallel=None"):
        _execute_cells(_slower_first, list(range(3)), parallel=2)
    with pytest.raises(WorkerError, match=r"no POSIX semaphores.*pass shards=1"):
        run_sharded(_allreduce(), _SHARDED)


def test_negative_parallel_is_rejected():
    with pytest.raises(ValueError, match="parallel must be .* got -2"):
        _execute_cells(_slower_first, list(range(3)), parallel=-2)


# ----------------------------------------------------------------- payload
def test_unpicklable_payload_is_inherited_under_fork():
    with _default_start_method("fork"), Workers(2, _UNPICKLABLE, "w", "-") as pool:
        assert pool.each(_call_payload, [(), ()]) == [7, 7]
    assert _no_children()


def test_unpicklable_payload_is_pickled_under_spawn():
    with _default_start_method("spawn"), pytest.raises(pickle.PicklingError):
        with Workers(1, _UNPICKLABLE, "w", "-") as pool:
            pool.each(_call_payload, [()])
    assert _no_children()


def test_spawned_shards_match_forked_shards():
    schedule = _allreduce()
    forked = GoalScheduler(schedule, backend="htsim", config=_SHARDED, validate=False)
    with _default_start_method("fork"):
        forked_result = forked.run()
    with _default_start_method("spawn"):
        spawned_result, spawned_events = run_sharded(schedule, _SHARDED)
    assert spawned_result.finish_time_ns == forked_result.finish_time_ns
    assert spawned_result.rank_finish_times_ns == forked_result.rank_finish_times_ns
    assert sorted(spawned_result.message_records) == sorted(forked_result.message_records)
    assert vars(spawned_result.stats) == vars(forked_result.stats)
    assert spawned_events == forked.events_executed
    assert _no_children()


# ------------------------------------------------------------------ order
def test_results_come_back_in_grid_order():
    results = _execute_cells(_slower_first, list(range(6)), parallel=3)
    assert [cell for cell, _ in results] == list(range(6))
    pids = {pid for _, pid in results}
    assert _PARENT not in pids and len(pids) > 1
    assert _no_children()


# --------------------------------------------------------------- tripwire
def test_one_process_substrate_tripwire():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    pools = re.compile(r"ProcessPoolExecutor|^\s*(from|import) (multiprocessing|concurrent)")
    fallback = re.compile(r"_BOOT|pool_fallback_errors|RuntimeWarning")
    sweep = re.compile(r"repro\.sweep|from repro import .*\bsweep\b")
    hits = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if (
                (pools.search(line) and rel != "workers.py")
                or fallback.search(line)
                or (sweep.search(line) and rel.startswith("network/"))
            ):
                hits.append(f"{rel}:{n}: {line.strip()}")
    assert not hits, "\n".join(hits)
