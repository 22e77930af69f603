"""Pass timing that samples the machine's speed while the pass runs.

The benchmark is meant for small shared virtual machines, whose speed
drifts. On a 2-vCPU VM the same city_sweep pass, repeated 160 times in one
process, took 1.33-2.39 s, and the median pass of ten 30-second runs spread
0.43 (interquartile range over median). CPU time tracks wall time there, so
the guest cannot see the cause. A per-run median cannot remove drift that
lasts as long as the run.

A fixed probe therefore runs from a timer signal every ``PERIOD_S`` seconds
during each timed pass, and once before and after it. ``Pass.raw_s`` is the
pass's wall time minus the probes' own time. ``Pass.scaled_s`` is that time
at the reference speed, at which one probe slice takes its reference time.
Each workload names the probe whose slowdowns track its own best; over
four-minute recordings this cut the spread of 30-second medians from
0.23 to 0.015 (city_sweep), 0.089 to 0.020 (town_campaign) and 0.23 to
0.064 (staged_remote_gae).

The probes run no mcpa code, so a program change cannot move them. They
keep the collector off and allocate no object the collector tracks, so the
program's heap cannot slow them. The memory probe keeps one 8 MB array,
which ``peak_rss_mb`` includes.
"""
from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.2


def _numpy_slice() -> None:
    vector = np.linspace(0.0, 1.0, 16)
    matrix = np.full((16, 16), 0.05)
    for _ in range(600):
        vector = np.log1p(matrix @ vector)


class _MemorySlice:
    """Four sums over an 8 MB array: a memory-bandwidth sample."""

    def __init__(self):
        self.array = None

    def __call__(self) -> None:
        if self.array is None:
            self.array = np.ones(1_000_000)
        for _ in range(4):
            self.array.sum()


# name -> (fixed work, its time at the reference speed, which is about its
# time on one 2 GHz Xeon vCPU). Small numpy calls track the solver- and
# world-bound workloads; memory bandwidth tracks the one moving megabytes
# of JSON.
PROBES = {
    "numpy": (_numpy_slice, 0.002),
    "memory": (_MemorySlice(), 0.0033),
}


def probe(name: str) -> float:
    """Seconds one slice of the named probe's fixed work takes."""
    work = PROBES[name][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, name: str, samples) -> float:
    """``seconds`` measured while the probe took ``samples`` on average,
    expressed at the reference speed."""
    return seconds * PROBES[name][1] / statistics.fmean(samples)


class Pass:
    """Context manager timing one pass while sampling machine speed."""

    def __init__(self, probe_name: str):
        self.probe_name = probe_name
        self.samples: list[float] = []
        self.raw_s = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe(self.probe_name))

    def __enter__(self):
        self.samples.append(probe(self.probe_name))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - sum(self.samples[1:])
        self.samples.append(probe(self.probe_name))

    @property
    def scaled_s(self) -> float:
        return scale(self.raw_s, self.probe_name, self.samples)
