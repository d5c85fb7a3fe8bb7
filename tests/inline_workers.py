"""In-process stand-in for :class:`repro.workers.Workers`.

``with inline_workers():`` runs every sharded engine and parallel sweep
inside the test process, through the same driver code the worker processes
run: the fake keeps one state object per fake worker and calls each task
``fn(state, *args)`` on it in turn.  The differential grids use it so that
a 3–4 point shard sweep per cell pays no process start-up; the real
substrate is under test in ``tests/test_workers.py``.
"""
from __future__ import annotations

import contextlib
import types

import pytest

from repro import workers


class InlineWorkers:
    """Same interface as :class:`repro.workers.Workers`, no processes."""

    def __init__(self, count, payload, label, serial):
        self.states = [types.SimpleNamespace(payload=payload) for _ in range(count)]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def each(self, fn, args):
        return [fn(state, *a) for state, a in zip(self.states, args)]

    def map(self, fn, count):
        return [fn(self.states[k % len(self.states)], k) for k in range(count)]


@contextlib.contextmanager
def inline_workers():
    """Swap :class:`InlineWorkers` in for the process substrate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workers, "Workers", InlineWorkers)
        yield
