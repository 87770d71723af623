"""Machine-speed calibration for timings taken on a shared machine.

The speed of a shared virtual machine drifts by tens of percent over tens
of seconds, which swamps the differences a benchmark is meant to show. A
fixed kernel of the same kind of work as minreach's (small dense numpy
products plus interpreter loops) runs after every operation; an operation's
time is rescaled by REFERENCE_MS over the median kernel time of the nearby
samples. Calibrated times read as milliseconds on a machine where the
kernel takes REFERENCE_MS, and a change to minreach cannot move the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time (ms) calibrated timings are expressed at: about the median on
#: the machine the reference figures were measured on.
REFERENCE_MS = 8.0

#: Kernel samples on each side of an operation that set its speed factor.
WINDOW = 2

_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def _kernel() -> float:
    q = np.zeros((40, 0))
    for col in _MATRIX.T:
        w = col - q @ (q.T @ col)
        w -= q @ (q.T @ w)
        q = np.hstack([q, (w / np.linalg.norm(w))[:, None]])
    acc = 0
    for i in range(20000):
        acc += i * i
    return float(q[0, 0]) + acc


#: Kernel runs per sample; longer samples track the machine's speed better.
RUNS = 4


def sample_ms() -> float:
    """Wall time of RUNS kernel runs, in ms."""
    start = time.perf_counter()
    for _ in range(RUNS):
        _kernel()
    return (time.perf_counter() - start) * 1e3


def factors(samples: list[float]) -> list[float]:
    """Speed factor for each position: REFERENCE_MS over the median of the
    samples within WINDOW positions of it."""
    return [
        REFERENCE_MS / statistics.median(samples[max(i - WINDOW, 0) : i + WINDOW + 1])
        for i in range(len(samples))
    ]
