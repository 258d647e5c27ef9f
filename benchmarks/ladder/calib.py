"""The calibration loop ``run_cu`` is measured against.  NEVER EDIT.

Wall time in this sandbox drifts by a quarter between back-to-back
processes of the same code, so raw seconds cannot be gated.  Every timed
run is bracketed by this fixed pure-Python heap + dict loop -- the same
interpreter operations the simulator's event queue lives on -- and
reported in *calibration units*: run wall / mean calibration wall.  A
change to this file silently rescales every ``run_cu`` ever recorded.

A run that keeps two processes busy (``ft_mp2``) is calibrated with two
processes busy: how much the second vCPU costs the first (hyperthread
sibling or not, noisy neighbour or not) changes on a scale of minutes and
moved ``ft_mp2``'s medians by +-7% against a single-process calibration,
+-2.5% against this one.
"""

import os
from heapq import heappop, heappush
from time import perf_counter

#: Loop iterations per sample (~35 ms on the sizing machine).
ITERATIONS = 40_000
#: Samples taken on each side of a timed run.
SAMPLES = 3


def calibration_loop() -> float:
    """Wall seconds of one fixed heap + dict churn loop."""
    heap: list = []
    table: dict = {}
    x = 12345
    t0 = perf_counter()
    for i in range(ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x, i))
        table[x & 1023] = i
        if i & 1:
            heappop(heap)
    while heap:
        heappop(heap)
    return perf_counter() - t0


def calibrate(busy_processes: int = 1) -> list:
    """``SAMPLES`` back-to-back loop timings, taken while
    ``busy_processes - 1`` forked helpers run the same loop."""
    helpers = []
    for _ in range(busy_processes - 1):
        pid = os.fork()
        if pid == 0:
            for _ in range(SAMPLES + 1):  # outlast the samples below
                calibration_loop()
            os._exit(0)
        helpers.append(pid)
    samples = [calibration_loop() for _ in range(SAMPLES)]
    for pid in helpers:
        os.waitpid(pid, 0)
    return samples
