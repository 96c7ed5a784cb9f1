"""Host-speed probe: a fixed piece of numpy and Python work, timed between passes.

The benchmark runs on a share of a machine whose speed drifts by up to
1.8x over minutes: one series of identical 10-second oracle passes on a
2-core VM ranged from 5.9 s to 10.5 s, while each pass's CPU time
equalled its wall time. A median over one run cannot remove drift that
lasts longer than the run, so ``run.py`` times this probe before and
after every pass and multiplies the pass's times by
``REFERENCE_S / probe time``. The end-to-end times then read as seconds
on a host where the probe takes ``REFERENCE_S``; unscaled times are
printed beside them. In that series the scaling cut the spread of
six-pass medians from 12% to 5% of the median.

The work imitates the program's mix: FFTs on 64^2 grids (the oracle's
apply and preconditioner), tall-skinny block products and a small
``eigh`` (LOBPCG's Rayleigh-Ritz step), a large elementwise ``exp`` (tube
kernel assembly) and a pure-Python loop (solver and CLI bookkeeping).
It calls nothing in ``shellbound``, so a change to the program cannot
change it. Each reading is the fastest of a few repeats, which drops a
short stall but keeps a slowdown that lasts.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.125  # about one reading on an idle 2-core VM
REPEATS = 5


class Probe:
    """The probe's inputs, made once; calling it returns one reading in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((8, 64, 64))
        self.block = rng.standard_normal((4096, 24))
        self.wide = rng.standard_normal(1_000_000)

    def once(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.fft.ifft2(np.fft.fft2(self.grid) * 0.5)
            gram = self.block.T @ self.block
            self.block @ gram
            np.linalg.eigh(gram)
            np.exp(-self.wide * self.wide)
            sum(i * i for i in range(20_000))
        return time.perf_counter() - start

    def __call__(self) -> float:
        return min(self.once() for _ in range(REPEATS))
