"""Machine speed sampled while a timed ``run_config`` call runs.

The host is shared: the time of a fixed small-matrix kernel swings by up
to 1.7x from one second to the next and its average drifts by a quarter
over minutes, so two runs of the same call minutes apart differ by more
than a regression worth catching.  ``SpeedProbe`` times a fixed reference
kernel from a SIGALRM handler every ``PERIOD`` seconds while the call runs
(the call is paused meanwhile, so the two do not compete).  The kernel is
Python-loop numpy work on 3x3 matrices, the same kind of work the checkers
do.  A time divided by the harmonic mean of the kernel times measured over
it is a length in kernels, out of which the drift cancels; times in
*nominal seconds* are such lengths at ``NOMINAL_KERNEL_S`` per kernel, about
this host's typical kernel time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.1
KERNEL_STEPS = 60  # about 1 ms, so sampling costs about 1% of the call
NOMINAL_KERNEL_S = 1e-3


class SpeedProbe:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((3, 3))
        self.samples: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        m = np.eye(3)
        for _ in range(KERNEL_STEPS):
            m = m @ self._a
            m /= np.abs(m).max()
            np.linalg.svd(m, compute_uv=False)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # a call shorter than PERIOD still gets one sample
        return False

    @property
    def spent(self) -> float:
        """Seconds the samples took, all but the last inside the timed call."""
        return sum(self.samples[:-1])



def nominal(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the kernel took ``samples``, in nominal seconds."""
    return seconds * NOMINAL_KERNEL_S / statistics.harmonic_mean(samples)
