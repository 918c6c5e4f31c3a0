"""Reference tasks that gauge how fast the machine runs at a given moment.

On a shared host the same code runs at different speeds from one second
to the next: another tenant's load on the physical core slows a whole
stretch of operations by up to 1.6x, and a run that falls in such a
stretch reads slow throughout.  The benchmark therefore times a fixed
reference task between operations and scales each operation by the
reference's time on either side of it:

    scaled = seconds * NOMINAL / mean(reference before, reference after)

The reference code is part of the benchmark, not of the program, so a
change to the program moves the scaled time just as it moves the wall
time, while a change in the machine's speed moves both the operation and
the reference and cancels.

Each reference is timed cold, once, straight after an operation and its
oracle check, much as the next operation starts.  A reference warmed up
first misses the share of the noise that comes from contention for
memory bandwidth and tracked the array-bound workloads about half as
well.  Scaled times read as wall seconds on a machine that runs the
reference in its NOMINAL seconds: the median times measured between
operations on the 2-vCPU Intel Xeon VM (2.1 GHz) this benchmark was
written on, so that there the scaled and the wall medians are close.

There are two references, matched to what dominates a workload: a
pure-Python loop for interpreter-bound work, and a numpy gather and
scatter for array-bound work.  numpy is imported only when the numpy
reference is built, so the Python reference can time the package import.
"""

from __future__ import annotations

import time

PYTHON_STEPS = 200_000
NUMPY_LENGTH = 1 << 21


def _python_task():
    def task() -> int:
        table = list(range(1024))
        acc = 0
        for i in range(PYTHON_STEPS):
            j = (i * 2654435761) & 1023
            table[j], table[i & 1023] = table[i & 1023], table[j]
            acc += j % 7
        return acc

    return task


def _numpy_task():
    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.integers(0, 1 << 62, NUMPY_LENGTH, dtype=np.uint64)
    perm = rng.permutation(NUMPY_LENGTH)

    def task() -> None:
        data[perm] = data[perm[::-1]]

    return task


# kind -> (task factory, NOMINAL seconds of one task)
REFERENCES = {
    "python": (_python_task, 0.035),
    "numpy": (_numpy_task, 0.035),
}


class Reference:
    """One reference task, timed on demand."""

    def __init__(self, kind: str):
        factory, self.nominal = REFERENCES[kind]
        self.kind = kind
        self.task = factory()
        self.times: list[float] = []

    def seconds(self) -> float:
        start = time.perf_counter()
        self.task()
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at nominal speed, given the reference times on either side."""
        return seconds * self.nominal * 2 / (before + after)
