"""Host-speed probes that put benchmark times on one reference speed.

On a shared host the same work can run up to ~1.8x slower for seconds at a
time while neighbours load the machine. On the 2-vCPU VM this benchmark was
written on, one fixed ``solve_kappa`` took 57-60 ms in fast phases and
100-110 ms in slow ones, and process CPU time rose with wall time, so the
guest cannot see the slowdown. Raw wall times then spread by tens of percent
between runs of the same code.

The probe is a fixed mix of interpreter and small-array numpy work, like
fairprice's inner loops. A time ``t`` measured while the probe takes ``p``
seconds is reported as ``t * REF_S / p``: the time the work would take at the
speed where the probe takes REF_S. The probe runs no fairprice code, so a
faster program shows fully in the normalized times.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

REF_S = 0.008  # probe time in the fast phase of the 2-vCPU VM above
REF_STARTUP_S = 0.7  # startup_probe time in the same phase
_GRID = np.linspace(0.0, 1.0, 64)
_BLOCK = np.random.default_rng(0).uniform(size=100_000)


def probe():
    """Time of the fixed probe work (seconds), about REF_S when the host is fast.

    Interpreter arithmetic and small-array numpy calls, like the solver's
    loops, plus a sort of a 0.8 MB array, like the assignment oracle's
    matrix work. Long enough (~10 ms) to average over the on/off slow-down
    pattern of ~40 ms seen on the shared host.
    """
    t0 = time.perf_counter()
    np.sort(_BLOCK)
    acc = 0.0
    for i in range(1500):
        level = i / 1500.0
        acc += float(np.where(_GRID > level, _GRID, 0.0).sum())
        for j in range(20):
            acc += (j * level) % 1.0
    return time.perf_counter() - t0


def startup_probe():
    """Seconds to start an interpreter that imports numpy and scipy.optimize.

    That is most of what ``import fairprice`` costs, but none of fairprice
    itself: process start-up and imports are file, mapping and page-fault
    work that slows down differently from the compute probe (about 1.4x
    where the compute probe reads 1.8x), so set-up times are normalized by
    this probe instead.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize"], check=True)
    return time.perf_counter() - t0


class SpeedLog:
    """Probes between ops and, from a SIGALRM timer, every ``interval``
    seconds during them, so that ops lasting seconds are normalized by the
    host speed over their whole length, not only at their ends.

    With ``interval=None`` ops are not normalized: ``end`` returns the raw
    time twice, and the probes between ops are only recorded. That is for
    ops whose work runs in child processes (verify-cli). The vCPUs of a
    shared host run at different speeds at the same moment (the probe read
    10 ms on one and 16 ms on the other) and each changes speed every few
    seconds, and a child runs on either, so no probe in the parent tracks
    it. Normalizing by the probes during ops (which also compete with the
    children for the CPUs) raised the spread (IQR / median over seeds) of
    the median op time from 8% to 32% on five seeds, and by the probes at
    each op's ends from 12% to 37% on eight. Pinning the worker and its
    children to one CPU and normalizing by the probes between ops spread
    7-19% in four sets of 5-8 seeds: no better than raw times, which spread
    10-13% in three sets of ten.

    Use as a context manager around the timed loop; ``begin`` before each op
    and ``end`` after it return the op's time at the reference speed, with
    the probes run during the op taken out.
    """

    def __init__(self, interval=0.5):
        self.interval = interval
        self.probes = []
        self._inside = 0.0
        self._first = 0
        self._saved = None

    def _sample(self):
        p = probe()
        self.probes.append(p)
        return p

    def _on_alarm(self, signum, frame):
        self._inside += self._sample()

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def begin(self):
        self._first = len(self.probes) - 1
        self._inside = 0.0
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return time.perf_counter()

    def end(self, t0):
        """(raw seconds, normalized seconds) of the op started at ``t0``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        raw = time.perf_counter() - t0 - self._inside
        self._sample()
        if self.interval is None:
            return raw, raw
        seen = self.probes[self._first:]
        return raw, raw * REF_S * len(seen) / sum(seen)
