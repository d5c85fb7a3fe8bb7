#!/usr/bin/env python
"""Quickstart: build a GOAL schedule by hand and simulate it on both backends.

This mirrors the paper's Fig. 3 example — a tiny program with computation on
two compute streams feeding a send — extended with a receiver so the message
actually goes somewhere, and then replays it on the message-level (LogGOPSim)
and packet-level (htsim-like) backends.  The printed text names vertex ``i``
of each rank ``op{i}``: the writer generates those names, because a schedule
keeps only each op's fields and dependencies, not the ``l1`` .. ``l4`` of
Fig. 3.

Run with::

    python examples/quickstart.py
"""
from repro.goal import GoalBuilder, validate_schedule, write_goal
from repro.network import SimulationConfig
from repro.scheduler import simulate


def build_schedule():
    """The Fig. 3 schedule: two parallel calcs gate a 10-byte send to rank 1."""
    builder = GoalBuilder(num_ranks=2, name="fig3-example")
    r0 = builder.rank(0)
    l1 = r0.calc(100)
    l2 = r0.calc(200, cpu=0, requires=[l1])
    l3 = r0.calc(200, cpu=1, requires=[l1])
    r0.send(10, dst=1, tag=1, requires=[l2, l3])

    r1 = builder.rank(1)
    r1.recv(10, src=0, tag=1)
    return builder.build()


def main() -> None:
    schedule = build_schedule()
    validate_schedule(schedule)

    print("Textual GOAL representation:")
    print(write_goal(schedule))

    for backend in ("lgs", "htsim"):
        config = SimulationConfig(topology="single_switch")
        result = simulate(schedule, backend=backend, config=config)
        print(
            f"backend={backend:5s}  simulated time = {result.finish_time_ns} ns  "
            f"messages = {result.stats.messages_delivered}"
        )


if __name__ == "__main__":
    main()
