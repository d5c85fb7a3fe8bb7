"""GOAL scheduler: replays GOAL schedules on a network backend."""
from repro.scheduler.scheduler import GoalScheduler, SchedulerDeadlockError, check_shards, simulate

__all__ = ["GoalScheduler", "SchedulerDeadlockError", "check_shards", "simulate"]
