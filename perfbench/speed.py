"""Calibrated time: wall time corrected for the speed the machine ran at.

On a shared host the same work can take up to twice as long from one second
to the next, while the process is never descheduled (its CPU time tracks its
wall time): other tenants slow the processor itself. Medians within a run
cannot remove that, since a whole run can fall in a slow stretch.

So the benchmark samples the machine's speed while it times vastsum: a short
reference pass runs before and after each timed phase and, from a SIGALRM
timer, every SAMPLE_S seconds inside it. The reference pass is fixed work that
does not touch vastsum: a tuple-building dynamic program in the interpreter,
small numpy operations, BLAS matmuls and a JSON round trip, the four kinds of
work vastsum's commands are made of. Time spent in passes inside a phase is
left out of its time (`Speed.now`). A phase's calibrated seconds are its wall
seconds times the mean of REFERENCE_S / (reference time) over its passes,
that is, the seconds it would have taken had the machine run every reference
pass in REFERENCE_S.

A change to vastsum moves calibrated time as it moves wall time; a change in
the machine's speed moves the reference too, and mostly cancels out.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

# About the median reference pass on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11, one BLAS thread), so calibrated seconds read close to that
# machine's wall seconds.
REFERENCE_S = 0.0045
# Seconds between reference passes inside a phase: about 2% of its time.
SAMPLE_S = 0.2

_SMALL = np.linspace(0.0, 1.0, 16 * 32).reshape(16, 32)
_SQUARE = np.linspace(-1.0, 1.0, 192 * 192).reshape(192, 192)
_DOC = [i * 0.001 for i in range(2000)]


def reference_pass() -> None:
    """About 1 ms each of interpreter, numpy dispatch, BLAS and JSON work."""
    best = [(0.0, 0, ())] * 160
    for i in range(16):
        w = i % 5 + 1
        for c in range(159, w - 1, -1):
            base_v, base_w, base_sel = best[c - w]
            cand = (base_v + 0.25 * i, base_w + w, base_sel + (i,))
            if cand[0] > best[c][0] or (cand[0] == best[c][0] and cand[1] < best[c][1]):
                best[c] = cand
    x = _SMALL
    for _ in range(150):
        x = np.tanh(x * 0.5 + 0.1)
    for _ in range(3):
        _SQUARE @ _SQUARE
    json.loads(json.dumps(_DOC))


def reference_seconds() -> float:
    """Wall seconds of one reference pass, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_pass()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Samples the machine's speed around and inside timed phases.

    Time a phase with `now()` between `begin()` and `end()`; `end` returns the
    factor from the phase's wall seconds to calibrated seconds. With
    `sample_s=None` only the passes at the edges run (no timer)."""

    def __init__(self, sample_s: float | None = SAMPLE_S) -> None:
        self.sample_s = sample_s
        self.references: list[float] = []  # every pass, for the record
        self._phase: list[float] = []
        self._in_passes = 0.0
        self._armed = False
        self._previous_handler = None

    def now(self) -> float:
        """perf_counter() without the time spent in reference passes."""
        return time.perf_counter() - self._in_passes

    def _sample(self) -> None:
        start = time.perf_counter()
        self._phase.append(reference_seconds())
        self._in_passes += time.perf_counter() - start

    def _tick(self, _signum, _frame) -> None:
        if self._armed:  # a tick delivered just after disarm() is dropped
            self._sample()

    def begin(self) -> None:
        self._phase = []
        self._sample()
        if self.sample_s:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)

    def disarm(self) -> None:
        """Stop the timer; `end` does this, and a phase that raises must."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            signal.signal(signal.SIGALRM, self._previous_handler)

    def end(self) -> float:
        self.disarm()
        self._sample()
        self.references += self._phase
        return statistics.fmean(REFERENCE_S / r for r in self._phase)
