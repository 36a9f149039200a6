"""Scale measured times to a reference machine speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed swings
by a factor of up to 1.6 within seconds and can stay at either end for
minutes, as other tenants load the hardware.  Process CPU time swings with it,
so neither wall nor CPU time of one command repeats between runs.  What does
repeat is the ratio of a command's time to the time of a fixed loop of
interpreter and numpy work measured alongside it.

A ``SpeedProbe`` runs that loop (``_loop``, 3 to 5 ms) in the measured
process itself: before and after the measured interval and, while it runs,
from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds.  The stretch of program time
between two consecutive probes is weighted by the mean speed of those two
probes, speed being ``REF_S`` over the probe's duration; the time spent in
probes is left out.  The result, in seconds, is how long the interval would
have taken on a machine where one loop takes ``REF_S`` seconds.
``speed_now`` gives the speed from one loop, for a start-up too short to
probe inside.  The loop
calls no combregret code, so every change to the program moves the scaled
time in full.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_clock = time.monotonic  # the clock run.py and child.py use

INTERVAL_S = 0.2

# one loop at the reference speed: about its time in the fast setting of the
# 2-vCPU host the benchmark was written on (Intel Xeon at 2.1 GHz, Python
# 3.11); any fixed value serves, since scaled times are only compared with
# each other
REF_S = 0.003

# arrays for the array part, scrambled by a multiplicative hash (numpy.random
# is not used: importing it would add megabytes to every command's peak RSS;
# the loop's own temporaries come to half a megabyte)
_N = 1 << 14
_KEYS = (np.arange(_N, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         >> np.uint64(24)).astype(np.int64)
_WEIGHTS = np.linspace(0.0, 1.0, _N)


def _loop() -> float:
    # three quarters of the time in interpreter work (integer arithmetic and
    # a small dict, as on game states), a quarter in array work (sort, group
    # and sum, as in the float kernel of forward).  Each part alone over- or
    # under-corrected some workload when the host slowed; the mix tracked the
    # command times of figure1, exact-eval and adaptive-k3 best.
    d: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
        acc += (i ^ k) >> 1
    order = np.argsort(_KEYS, kind="stable")
    keys = _KEYS[order]
    first = np.empty(_N, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return acc + np.bincount(np.cumsum(first) - 1, weights=_WEIGHTS[order]).sum()


def speed_now() -> float:
    """Machine speed relative to the reference, from one loop run now."""
    t0 = _clock()
    _loop()
    return REF_S / (_clock() - t0)


class SpeedProbe:
    """Probes of machine speed taken in this process, and time scaled by them."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each loop

    def probe(self) -> None:
        t0 = _clock()
        _loop()
        self.probes.append((t0, _clock()))

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        """Probe now and then every ``INTERVAL_S`` until ``stop``."""
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(scaled, raw) seconds of program time in [start, end].

        Raw time leaves out the probes inside the interval.  Needs a probe at
        or before ``start``'s side of the interval and one after ``end``.
        """
        speeds = [(a, b, REF_S / (b - a)) for a, b in sorted(self.probes)]
        raw = scaled = 0.0
        # each gap between probes, clipped to [start, end]; a gap before the
        # first probe or after the last takes that probe's speed alone
        prev_end, prev_speed = start, None
        for a, b, speed in speeds + [(end, end, None)]:
            lo, hi = max(prev_end, start), min(a, end)
            if hi > lo:
                pair = [s for s in (prev_speed, speed) if s is not None]
                raw += hi - lo
                scaled += (hi - lo) * sum(pair) / len(pair)
            prev_end, prev_speed = max(prev_end, b), speed
        return scaled, raw
