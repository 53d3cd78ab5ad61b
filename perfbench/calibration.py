"""A yardstick for the machine's speed that shares no code with the program.

On a shared machine the same code runs up to a third slower for minutes at
a time, which moves every wall-clock time between runs.  A fixed loop of
pure-Python work timed beside each cycle slows down with it, so a time
divided by the loop's time cancels that drift.  The loop calls nothing of
the program: making the program faster or slower cannot move it.

Times are reported rescaled to a *reference speed*: multiplied by
``REFERENCE_S`` over the loop's measured time.  ``REFERENCE_S`` is the
loop's median time between the benchmark's steps on the machine the bounds
were tuned on (2-core x86-64 VM, Python 3.11), so there the figures read as
wall-clock milliseconds and seconds.
"""

from __future__ import annotations

import time
from typing import List

#: Iterations of one calibration pass.
ITERATIONS = 1500
#: Seconds one pass takes between the benchmark's steps on the reference machine.
REFERENCE_S = 1.5e-3

_KEYS = tuple(f"frame-{index}" for index in range(512))


class _Node:
    __slots__ = ("key", "count", "total", "children")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.total = 0.0
        self.children: List[tuple] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self.children) < 8:
            self.children.append((self.key, value))


def calibration_pass() -> float:
    """Seconds one pass of the fixed loop takes now.

    The loop does the interpreter work the program does most: calls,
    attribute and dictionary lookups, small allocations.
    """
    started = time.perf_counter()
    table = {}
    for index in range(ITERATIONS):
        key = _KEYS[index % len(_KEYS)]
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key)
        node.add(index * 0.5)
    return time.perf_counter() - started


def at_reference(seconds: float, pass_s: float) -> float:
    """``seconds`` measured while one pass took ``pass_s``, at the reference speed."""
    return seconds * REFERENCE_S / pass_s
