"""Host-speed probe: a fixed reference computation timed between operations.

The benchmark runs on virtual CPUs of a shared host whose speed drifts by
tens of percent over tens of seconds: one series of the same ``trapdoor``
commands had 20-second medians from 76 to 108 ms.  User time drifts with
wall time, so CPU clocks do not remove it.  The probe is a few milliseconds
of the work lcuout is made of: small complex SVDs, an interpreter loop and a
streaming array operation.  ``Sampler`` runs it right before and right after
each operation and, for operations longer than ``INTERVAL_S``, every
``INTERVAL_S`` inside it; ``stats.host_scaled`` then takes the probe time
out of the operation and scales the rest by ``REF_PROBE_S`` over the
probes' mean.  The result reads in seconds on a host that runs the probe in
``REF_PROBE_S``.  In the series above the scaled medians stayed within
17.3-18.7 (times the probe), where the raw ones spread by 0.20 (IQR /
median).  A 7-second ``fig3`` command drifts within itself, so bracketing
probes alone left it spread by 0.17; hence the probes inside.

The probe uses numpy only, never lcuout, so a change to lcuout moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# About the probe's median on the 2-vCPU Xeon VM the baseline was recorded on.
REF_PROBE_S = 0.005
# Probe period inside an operation: about 2.5 % of its wall time.
INTERVAL_S = 0.2

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_V = _rng.standard_normal(200_000)


def probe() -> float:
    """Wall seconds of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.svd(_M)
    s = 0
    for i in range(30_000):
        s += i * i
    float((_V * 1.0001).sum())
    return time.perf_counter() - t0


class Sampler:
    """Probe runs as ``(start, end)`` pairs of ``time.perf_counter()``.

    ``run`` probes once; inside ``armed`` a SIGALRM timer also probes every
    ``INTERVAL_S`` of wall time.  Python runs the handler between bytecodes,
    so a probe due during a long LAPACK call runs when that call returns.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def run(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
