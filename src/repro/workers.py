"""Worker processes for the sweeps and the sharded packet engine.

``Workers(count, payload, label, serial)`` runs ``count`` worker processes
on the platform's default start method, one single-worker
:class:`~concurrent.futures.ProcessPoolExecutor` each, so that a death names
what its worker ran.  ``payload`` rides the pool initializer: inherited
under ``fork``, never pickled; pickled once per worker under ``spawn``.  A
task is a module-level ``fn(state, *args)``: ``state.payload`` is the
payload, and what a task stores on ``state`` stays for the worker's later
tasks.  A dead worker is one :class:`WorkerError` naming ``label`` and its
exit code; processes that cannot start are one quoting ``serial``, the
in-process setting; any other task exception keeps its type.  Leaving the
``with`` block reaps every worker, so ``RUSAGE_CHILDREN`` counts them.
"""
from __future__ import annotations

import types
from typing import Any, Callable, Dict, List, Sequence, Tuple

# the state of this worker process: set by the pool initializer, so only
# ever inside a worker
_STATE: Any = None


def _install(payload: Any) -> None:
    global _STATE
    _STATE = types.SimpleNamespace(payload=payload)


def _call(fn: Callable, args: Tuple) -> Any:
    return fn(_STATE, *args)


class WorkerError(RuntimeError):
    """A worker process died, or worker processes could not start."""


class Workers:
    """``count`` worker processes sharing one read-only ``payload``."""

    def __init__(self, count: int, payload: Any, label: str, serial: str) -> None:
        # concurrent.futures is imported where pools are used: importing
        # repro.sweep or repro.cli must not load multiprocessing (~1.7 MB RSS)
        from concurrent.futures import ProcessPoolExecutor

        self._label, self._serial = label, serial
        self._pools: List[ProcessPoolExecutor] = []
        try:
            for _ in range(count):
                self._pools.append(
                    ProcessPoolExecutor(1, initializer=_install, initargs=(payload,))
                )
        except (ImportError, NotImplementedError, OSError) as exc:
            self.close()
            raise self._cannot_start(exc) from None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Reap every worker, after the task it is running."""
        for pool in self._pools:
            pool.shutdown()

    def each(self, fn: Callable, args: Sequence[Tuple]) -> List:
        """``fn(state, *args[i])`` on worker ``i`` for every ``i``; results in order."""
        futures = [self._submit(i, fn, a, i) for i, a in enumerate(args)]
        return [self._result(i, f, i) for i, f in enumerate(futures)]

    def map(self, fn: Callable, count: int) -> List:
        """``fn(state, k)`` for ``k < count``, each on whichever worker is free; in order."""
        from concurrent.futures import FIRST_COMPLETED, wait

        results: List = [None] * count
        running: Dict[Any, Tuple[int, int]] = {}
        idle = list(range(len(self._pools)))
        k = 0
        while k < count or running:
            while idle and k < count:
                worker = idle.pop()
                running[self._submit(worker, fn, (k,), k)] = (worker, k)
                k += 1
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                worker, item = running.pop(future)
                results[item] = self._result(worker, future, item)
                idle.append(worker)
        return results

    def _submit(self, worker: int, fn: Callable, args: Tuple, item: int) -> Any:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return self._pools[worker].submit(_call, fn, args)
        except BrokenProcessPool:
            raise self._died(worker, item) from None
        except (NotImplementedError, OSError) as exc:
            raise self._cannot_start(exc) from None

    def _result(self, worker: int, future: Any, item: int) -> Any:
        from concurrent.futures.process import BrokenProcessPool

        try:
            return future.result()
        except BrokenProcessPool:
            raise self._died(worker, item) from None

    def _died(self, worker: int, item: int) -> WorkerError:
        pool = self._pools[worker]
        procs = list(pool._processes.values())  # the pool's one process
        pool.shutdown()  # joins it, so its exit code is final
        code = procs[0].exitcode if procs else None
        return WorkerError(f"{self._label} {item}: worker process died (exit code {code})")

    def _cannot_start(self, exc: BaseException) -> WorkerError:
        return WorkerError(
            f"cannot start worker processes ({exc}); "
            f"pass {self._serial} to run in this process"
        )
