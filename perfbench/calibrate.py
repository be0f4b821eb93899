"""Host-speed calibration: a fixed kernel timed between ops.

On a shared VM the CPU's speed drifts by up to 2x over seconds to
minutes, as other tenants load the machine. That drift, not the
program, sets most of the spread between runs. Each round therefore
also times a fixed pure-Python kernel every :data:`PROBE_EVERY_S` of op
time, outside the ops. A round's op times are scaled by
``REFERENCE_S / median(probe times)``, which reads them as if the host
ran at the reference speed. The kernel lives here and calls nothing in
``repro``, so a change to the program cannot move it.

The kernel is the core of an event simulator in plain Python: small
``__slots__`` events pushed through a binary heap written out in
Python, the interpreter work (calls, attribute loads, allocation) the
program's own engine does. On the reference VM, over 240 s of 5 s
chunks in which a fixed stack op and a fixed sweep op drifted with a
quartile spread of 0.09 (down to 0.62x of their median speed), scaling
by this kernel left 0.053. A kernel built on the C ``heapq`` and a
walk of a dict larger than the cache left 0.064 to 0.08, and either
of its halves alone 0.075 to 0.15.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: About the kernel's median time on the reference VM (2-vCPU Xeon,
#: CPython 3.11); scaled times read in that machine's milliseconds.
REFERENCE_S = 0.003

#: Op time between two probes.
PROBE_EVERY_S = 0.25

_EVENTS = 1200
#: Events kept queued; each push past this pops the earliest.
_DEPTH = 32


class _Event:
    __slots__ = ("time", "seq", "kind")

    def __init__(self, time: int, seq: int, kind: int):
        self.time = time
        self.seq = seq
        self.kind = kind


def _push(heap: List[_Event], event: _Event) -> None:
    heap.append(event)
    i = len(heap) - 1
    while i:
        parent = (i - 1) >> 1
        if heap[parent].time <= event.time:
            break
        heap[i] = heap[parent]
        i = parent
    heap[i] = event


def _pop(heap: List[_Event]) -> _Event:
    last = heap.pop()
    if not heap:
        return last
    top = heap[0]
    n = len(heap)
    i = 0
    while True:
        child = 2 * i + 1
        if child >= n:
            break
        if child + 1 < n and heap[child + 1].time < heap[child].time:
            child += 1
        if heap[child].time >= last.time:
            break
        heap[i] = heap[child]
        i = child
    heap[i] = last
    return top


def kernel() -> int:
    """Fixed work: push pseudo-random events through a bounded heap."""
    heap: List[_Event] = []
    counts = [0] * 8
    x = 12345
    for seq in range(_EVENTS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(x % 1000, seq, seq & 7)
        _push(heap, event)
        counts[event.kind] += 1
        if len(heap) > _DEPTH:
            _pop(heap)
    return len(heap) + sum(counts)


def probe() -> float:
    """Seconds one kernel run takes, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Probes of one round, taken every :data:`PROBE_EVERY_S` of op time."""

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]
        self._due_s = PROBE_EVERY_S

    def after_op(self, busy_s: float) -> None:
        """Probe if ``busy_s`` of op time has passed the next due mark."""
        if busy_s >= self._due_s:
            self.probes.append(probe())
            self._due_s = busy_s + PROBE_EVERY_S

    def factor(self) -> float:
        """What the round's op times are multiplied by."""
        self.probes.append(probe())
        return REFERENCE_S / statistics.median(self.probes)
