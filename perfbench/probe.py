"""Host-speed probe: express measured times at a fixed reference speed.

On a small shared host the same serial code runs at different speeds over
time: other tenants contend for the cores, caches and memory bus, and a
benchmark pass can take twice as long in one minute as in the next.  Process
time follows wall time through such a spell, so the work itself is slowed,
not descheduled, and neither clock can tell a slow host from a slow program.

A fixed probe -- a few milliseconds of pure-Python pointer chasing,
dictionary work, integer arithmetic, JSON decoding and small numpy
products, none of it program code -- is timed between units of work.  :class:`ReferenceClock`
scales each interval of work by ``REFERENCE_PROBE_S / probe time`` of the
probes around it: the time the work would have taken on a host where the
probe takes :data:`REFERENCE_PROBE_S`.  The probes themselves are excluded
from every interval.  The probe runs with the cyclic garbage collector off
and allocates almost nothing, so the program's heap does not change its
time.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Probe time, in seconds, on the host the benchmark was written on (a
#: 2-vCPU Xeon VM in its faster spells).  Reported times are in seconds of
#: that host; the constant only sets the scale.
REFERENCE_PROBE_S = 0.02

_RNG = random.Random(0)
_CHAIN = list(range(1 << 20))
_RNG.shuffle(_CHAIN)
_KEYS = [f"k{i}" for i in range(4096)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_MATRIX = np.random.default_rng(0).random((96, 96))
_DOCUMENT = json.dumps(
    [{"task": f"t{i}", "status": "ok", "metrics": {"acc": i / 97, "n": i}} for i in range(300)]
)


def _chase(steps: int = 60000) -> float:
    """Pointer chasing over a shuffled 1 Mi-entry list (memory latency)."""
    started = time.perf_counter()
    i = 0
    for _ in range(steps):
        i = _CHAIN[i]
    return time.perf_counter() - started


def _lookup(steps: int = 12000) -> float:
    """String-keyed dictionary lookups and tuple churn (interpreter work)."""
    started = time.perf_counter()
    acc = 0
    out = []
    for j in range(steps):
        key = _KEYS[(j * 2654435761) & 4095]
        acc += _TABLE[key]
        out.append((acc, key))
        if len(out) > 512:
            out.clear()
    return time.perf_counter() - started


def _arith(steps: int = 100000) -> float:
    """Integer arithmetic in a tight loop (bytecode dispatch)."""
    started = time.perf_counter()
    x = 0
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - started


def _decode(reps: int = 8) -> float:
    """JSON decoding of a fixed record list (allocation-heavy, as store reads)."""
    started = time.perf_counter()
    for _ in range(reps):
        json.loads(_DOCUMENT)
    return time.perf_counter() - started


def _dense(reps: int = 60) -> float:
    """Small dense products, as in GNN layers (numpy, one BLAS thread)."""
    started = time.perf_counter()
    x = _MATRIX
    for _ in range(reps):
        x = np.tanh(_MATRIX @ x * 0.01)
    return time.perf_counter() - started


_KERNELS = (_chase, _lookup, _arith, _decode, _dense)


def probe() -> float:
    """Seconds the fixed probe takes now (best of two per kernel, summed)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sum(min(kernel() for _ in range(2)) for kernel in _KERNELS)
    finally:
        if enabled:
            gc.enable()


def probe_median(count: int = 3) -> float:
    return statistics.median(probe() for _ in range(count))


class ReferenceClock:
    """A monotonic clock that pauses while probing and scales intervals.

    :meth:`now` reads ``perf_counter`` minus the time spent probing, so an
    interval never includes a probe.  :meth:`mark` probes and records the
    result at the current clock time.  :meth:`scaled` converts an interval
    of clock time into reference seconds: between two marks the speed is the
    mean of their probes; before the first and after the last mark it is the
    nearest probe's.  Mark only while no other thread does timed work.
    """

    def __init__(self) -> None:
        self._paused = 0.0
        self._marks: List[Tuple[float, float]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def mark(self) -> float:
        started = time.perf_counter()
        seconds = probe()
        self._paused += time.perf_counter() - started
        self._marks.append((self.now(), seconds))
        return seconds

    @property
    def probing_s(self) -> float:
        """Total wall time spent in probes."""
        return self._paused

    @property
    def probes(self) -> List[float]:
        return [seconds for _, seconds in self._marks]

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the clock interval ``[start, end]``."""
        if not self._marks:
            raise RuntimeError("scaled() needs at least one mark")
        times = [at for at, _ in self._marks]
        probes = self.probes
        edges = [-math.inf] + times + [math.inf]
        speeds = [probes[0]] + [(a + b) / 2 for a, b in zip(probes, probes[1:])] + [probes[-1]]
        total = 0.0
        for lo, hi, seconds in zip(edges, edges[1:], speeds):
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                total += overlap * REFERENCE_PROBE_S / seconds
        return total
