"""The machine's speed, sampled while a timed section runs.

The benchmark runs on small VMs that share their host.  Their speed
changes by up to 2x, both from one second to the next and for minutes on
end, and the VMs expose no hardware counters that count work instead of
time.  So each timed section is also timed against a fixed reference
kernel: a SIGALRM handler runs the kernel every `INTERVAL_S` seconds of
wall time, so its samples fall inside the section rather than only
around it.  The section's time minus the time spent in the handler,
times `KERNEL_REF_S` over the kernel's mean time in that section, is the
time the section would take at the reference speed.

The kernel is numpy work of both kinds the workloads do: calls on 2x2
matrices, where numpy's per-call overhead dominates, and a vectorised
pass over 20 000 doubles.  On a 2-vCPU Intel Xeon VM, its time tracked the
workloads' pass times with a correlation of about 0.98 through slow
stretches, where a pure-Python loop tracked them far worse.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# kernel() takes about this long at the reference speed: its time in the
# fast state of a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6), run
# while the CPU is busy.  Right after the CPU has been idle it takes about
# twice as long, so it is only sampled inside or right after busy work.
KERNEL_REF_S = 0.0006

_MATRIX = np.array([[4.0, 1.0], [1.0, 3.0]])
_VECTOR = np.array([1.0, 2.0])
_GRID = np.linspace(0.0, 10.0, 20_000)


def kernel() -> float:
    total = 0.0
    for _ in range(20):
        total += float(np.linalg.solve(_MATRIX, _VECTOR)[0]) + float((_MATRIX @ _VECTOR)[1])
        total += float(np.sqrt(np.dot(_VECTOR, _VECTOR)))
    y = np.sin(_GRID) * np.cos(0.5 * _GRID) + _GRID * _GRID
    return total + float(np.sum(np.exp(-y / 100.0)))


class SpeedSampler:
    """Times `kernel()` on request and, inside `with`, on a wall-clock timer.

    `samples` holds (start, seconds) of every kernel run.  Samples are only
    taken in the main thread, which is where signal handlers run.
    """

    def __init__(self):
        self.samples: list = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        # A kernel run that outlasts the interval must not start another.
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self) -> float:
        """Seconds spent in kernel runs so far."""
        return sum(dt for _, dt in self.samples)

    def spent_within(self, start: float, stop: float) -> float:
        """Seconds spent in kernel runs that lie inside [start, stop]."""
        return sum(dt for t, dt in self.samples if t >= start and t + dt <= stop)

    def factor(self) -> float:
        """Reference speed over the mean speed of the samples so far."""
        return KERNEL_REF_S * len(self.samples) / self.spent()


def timed(fn, *args):
    """Run `fn(*args)` under a sampler.

    Returns (result, seconds, seconds at the reference speed); both times
    leave out the sampler's own.  The kernel is also sampled just before
    and after, so a call shorter than the interval still has a speed.
    """
    sampler = SpeedSampler()
    sampler.sample()
    with sampler:
        start = time.perf_counter()
        result = fn(*args)
        stop = time.perf_counter()
    sampler.sample()
    net = stop - start - sampler.spent_within(start, stop)
    return result, net, net * sampler.factor()
