"""How fast the host runs during a pass, from samples taken inside it.

On a shared host, load from other tenants slows every instruction of this
process, at times to about half speed, and the slowdown drifts within a pass
and from minute to minute, so a pass's wall time moves with the host as much as with the
program.  ``Sampler`` interrupts a pass every ``INTERVAL_S`` of wall time
(``SIGALRM``) and times one fixed unit of reference work.  The unit's mean
time over the pass measures how slow the host was during that very pass.
The unit does not touch echcap and does not depend on the seed, so a change
to the program moves the pass and not the unit.

Its mix follows where echcap's time goes: short numpy minima over integer
arrays (as in the DP kernel) and Python-level integer arithmetic (as in the
rational layers).  A unit takes about 0.7 ms, so sampling costs about 2%
of a pass; the time the samples take is subtracted from the pass.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Fewest samples a pass is scaled by; a pass too short to collect them gets
# the rest right after it.
MIN_SAMPLES = 10
# About what one unit takes on the reference host (a 2-vCPU Intel Xeon
# virtual machine) when nothing else loads it.  ``Sampler.scale`` gives a
# pass's wall time on a host on which the unit takes this long.
REFERENCE_S = 0.0007

_SIZE = 4_000
_ROUNDS = 40
_INTEGERS = 6_000

# Fixed pseudo-random integers; numpy.random is not imported, as it would
# add 6 MiB to the process's resident set.
_A = np.arange(_SIZE, dtype=np.int64) * 7919 % 1_000_003
_B = np.arange(_SIZE, dtype=np.int64) * 104_729 % 999_983


def unit() -> float:
    """Seconds one unit of the reference work takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(_INTEGERS):
        x += i * i % 7
    a = _A.copy()
    b = np.empty_like(_B)
    for i in range(_ROUNDS):
        np.add(_B, i, out=b)
        np.minimum(a[1:], b[:-1], out=a[1:])
    return time.perf_counter() - start


class Sampler:
    """Times ``unit()`` every ``INTERVAL_S`` between ``start()`` and ``stop()``."""

    def __init__(self):
        self.samples = 0
        self.sampled_s = 0.0  # time in all samples
        self.inside_s = 0.0  # time in the samples taken during the pass

    def _sample(self, signum, frame):
        self.samples += 1
        self.sampled_s += unit()

    def start(self):
        self.samples = 0
        self.sampled_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside_s = self.sampled_s

    def scale(self, elapsed: float) -> tuple:
        """For a pass that took ``elapsed`` seconds between ``start()`` and
        ``stop()``: (its seconds net of the samples, the same at the
        reference speed, the mean seconds of a sample)."""
        while self.samples < MIN_SAMPLES:
            self._sample(None, None)
        per_sample = self.sampled_s / self.samples
        net = elapsed - self.inside_s
        return net, net * REFERENCE_S / per_sample, per_sample
