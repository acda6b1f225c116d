"""A machine-speed yardstick timed next to every cell.

On a shared host the interpreter's speed swings by a third from one
cell to the next as neighbours load the machine, and wall times swing
with it: consecutive passes over the same ``faults-8n`` cells took
10.5-14.8 s on a 2-core x86_64 container. The benchmark therefore
times this fixed spin, which runs no ``repro`` code, before the first
cell and after every cell, and rescales each cell's wall time by
``REFERENCE_S`` over the mean of the two spins around it. On the same
passes the rescaled totals stayed within 449-474 spin units (1.6%
coefficient of variation, against 11% for the wall times).

An optimisation of the simulator moves the rescaled time as it moves
the wall time; the spin does not move with it. The spin is the kind
of interpreter work the simulator's engine does: generator
resumption and heap pushes and pops.
"""

import heapq
import time

#: Spin time of an unloaded 2-core x86_64 container (CPython 3.11):
#: rescaled times read as host seconds on that machine.
REFERENCE_S = 0.020
LOOPS = 12
ITERATIONS = 2400


def _accumulator():
    total = 0
    while True:
        total += yield total


def _spin_once() -> int:
    heap = []
    gen = _accumulator()
    next(gen)
    acc = 0
    for i in range(ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        acc += gen.send(i & 15)
    while heap:
        acc ^= heapq.heappop(heap)[1]
    return acc


def measure() -> float:
    """Seconds taken by one spin."""
    started = time.perf_counter()
    for _ in range(LOOPS):
        _spin_once()
    return time.perf_counter() - started


def rescale(seconds: float, spin_s: float) -> float:
    """``seconds`` of wall time at the reference spin speed."""
    return seconds * REFERENCE_S / spin_s
