"""Speed probe: times a fixed kernel to scale the benchmark's timings.

The host this benchmark was built on runs a single thread at speeds that
drift by +-20% over tens of seconds, more than a run can average out.  The
pass times behind wall_s are therefore divided by the probe's mean kernel
time during the pass and multiplied by REF_S, the kernel's typical time on
the 2-core machine the baseline was recorded on.  Set-up runs in other
processes, which the probe does not track, so setup_s stays unscaled.

The kernel mixes small-array numpy calls and float formatting, like the
program, and uses no discflux code, so a change to the program cannot move
it.
"""
from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.009
PERIOD_S = 0.25


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._small = rng.random(400)
        self._mid = rng.random(4096)
        self._floats = rng.random(3000).tolist()
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the kernel so far

    def _kernel(self):
        for _ in range(200):
            a = self._small * 0.5 + self._small * self._small
            np.maximum(a, self._small, out=a)
            np.polyval((1.0, -0.5, 0.25), self._mid).sum()
        ",".join(map(repr, self._floats))

    def _sample(self, *_signal_args):
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.busy += took

    def start(self):
        """Sample every PERIOD_S of wall time from a SIGALRM handler, which
        runs in the main thread between the program's own bytecodes."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Mean kernel time since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return sum(self.samples) / len(self.samples) if self.samples else REF_S
