"""A fixed pure-Python reference task, timed in step with the operations.

The shared host this benchmark was built on changes speed by tens of
percent within minutes: the same 500 decodes took 0.36 s to 0.62 s in
one process, and a workload's throughput fell by a third between two
runs a minute apart.  Timing a task that never changes, in proportion
to and interleaved with the operations, measures that speed as it goes.
An operation's time divided by the reference task's mean time is its
cost in "ref" units, which stays put when the host slows down, but
moves when the package gets faster or slower.

The task mixes what the package's hot paths do: small tuples and dicts,
generator expressions, `min` with a key function, and sorting.
"""

import random
import time

# Reference time spent per second of operation time.
SHARE = 0.1


def reference_task(rounds: int = 6) -> float:
    rng = random.Random(12345)
    items = [(i % 53, rng.random()) for i in range(400)]
    total = 0.0
    for r in range(rounds):
        free = {}
        for key, weight in items:
            best = min(((free.get(k, 0.0), k) for k in (key, key + 1, r)),
                       key=lambda t: (t[0], -t[1]))
            free[best[1]] = max(best[0], weight) + key
        total += sorted(free.values())[len(free) // 2]
    return total


class Calibrator:
    """Keeps the reference task's total time at SHARE of the operations'."""

    def __init__(self):
        self.op_seconds = 0.0
        self.ref_seconds = 0.0
        self.ref_runs = 0

    def after(self, op_seconds: float) -> None:
        """Account one operation, then run the reference task as owed."""
        self.op_seconds += op_seconds
        while self.ref_seconds < SHARE * self.op_seconds:
            start = time.perf_counter()
            reference_task()
            self.ref_seconds += time.perf_counter() - start
            self.ref_runs += 1

    @property
    def ref_mean(self) -> float:
        return self.ref_seconds / self.ref_runs
