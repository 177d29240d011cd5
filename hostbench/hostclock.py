"""Host time in reference seconds, steady on a host whose speed drifts.

The machines this benchmark runs on share their cores with other
guests: the same work runs up to twice as slowly for seconds to minutes
at a time, so two runs of the same code can disagree by far more than
any change worth measuring.  :class:`HostClock` therefore samples the
host's current speed *while* a timed region runs: a timer signal fires
every :data:`PERIOD_S` and runs :func:`probe`, a fixed loop that uses no
simulator code.  A region's time is reported twice:

* ``raw_s``: measured seconds, minus the time spent in the probes;
* ``seconds``: ``raw_s`` scaled by ``PROBE_REF_S`` over the mean probe
  time seen during the region - the seconds the region would take on
  the host running at its reference speed.

A slow spell of the host lengthens the probes and the region alike and
cancels out; a faster simulator shortens only the region.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.02
PROBE_ROUNDS = 1500
PROBE_REF_S = 0.00045
"""Seconds :func:`probe` takes, interleaved with simulator work, on an
uncontended core of the reference host (a 2-vCPU x86-64 KVM guest with
Python 3.11.7 and numpy 2.4)."""


class _Slot:
    __slots__ = ("key", "value")

    def get(self):
        return self.value


_SLOTS = [_Slot() for _ in range(256)]
_ROWS = np.zeros((8, 64), dtype=np.uint8)


def probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds one fixed loop of the simulator's kind of work takes:
    attribute access, method calls, dict probes and small numpy
    operations.  It allocates one dict and no other object the garbage
    collector tracks, so it hardly moves the collector's schedule for the
    code it interrupts."""
    table = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(rounds):
        slot = _SLOTS[i & 255]
        slot.key, slot.value = i, i * 3
        table[i & 255] = slot
        hit = table.get((i * 7) & 255)
        if hit is not None:
            acc += hit.get()
        if not i & 63:
            acc += int((_ROWS[i & 7] | _ROWS[(i + 1) & 7]).sum())
    return time.perf_counter() - t0


@dataclass
class Region:
    elapsed_s: float = 0.0   # wall-clock time of the region, probes included
    raw_s: float = 0.0       # elapsed_s minus the probes
    seconds: float = 0.0     # raw_s at the reference speed
    samples: int = 0


class HostClock:
    """Times regions of host work (see the module docstring).

    A context manager: entering installs the ``SIGALRM`` handler, leaving
    restores the previous one.  The timer only runs inside
    :meth:`region`, and regions do not nest.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._samples.append(probe())
        finally:
            if enabled:
                gc.enable()
            self._spent += time.perf_counter() - t0

    @contextmanager
    def region(self):
        """Time the ``with`` body; the yielded :class:`Region` is filled
        in on exit.  One probe runs just before the body, so even a
        region shorter than the sampling period has a speed estimate."""
        record = Region()
        self._samples = [probe()]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            record.elapsed_s = time.perf_counter() - t0
            record.raw_s = record.elapsed_s - self._spent
            record.samples = len(self._samples)
            mean_probe = sum(self._samples) / len(self._samples)
            record.seconds = record.raw_s * PROBE_REF_S / mean_probe
