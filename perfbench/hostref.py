"""Host-speed reference: a fixed piece of NumPy and Python work that does
not touch ``mopg``.

On a host with shared vCPUs the same solve can run at 1.0 to 2.1 times its
fastest time, in slow spells that last from seconds to minutes.  Each start
is timed at its fastest pass, which absorbs the short spells; a spell that
covers much of a run slows every pass.  The reference is sampled before
every batch of a run, and its median sample says how fast the host
typically was during that run.  Time metrics are scaled by ``NOMINAL_S``
over that median, so a run made during a slow spell reports about what a
calm run would.  The scale is about 1 in a calm run on the host below.

The median, not the fastest sample, is used.  In 6 ``quad-m8`` runs made
in a noisy hour, time spreads between seeds were 0.07-0.16 scaled by the
median and 0.17-0.21 scaled by the fastest sample: the fastest of some 40
samples catches a calm moment that the starts, timed at their fastest of
3 to 5 passes, do not all get.

The work mixes what one outer step of the solvers does: small matrix
products, a sort and a cumulative sum as in the simplex projection, and a
soft threshold, on vectors of length 50, through Python calls.  A change
to ``mopg`` cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median sample of a run on 2 shared vCPUs (Python 3.11.7, NumPy 2.4.6),
# the median over 30 runs
NOMINAL_S = 0.0100
REPS = 1000
SAMPLES_PER_CALL = 5


class HostReference:
    """Timed samples of the reference work, in seconds."""

    def __init__(self, n: int = 50) -> None:
        rng = np.random.default_rng(0)
        self._v = rng.standard_normal(n)
        self._M = rng.standard_normal((3, n))
        self.samples: list[float] = []

    def _work(self) -> float:
        M, v = self._M, self._v
        acc = 0.0
        for _ in range(REPS):
            y = v - 1e-3 * (M.T @ (M @ v))
            css = np.cumsum(np.sort(y)[::-1])
            acc += float(np.maximum(np.abs(y) - 0.1, 0.0).sum() + css[-1])
        return acc

    def sample(self) -> None:
        for _ in range(SAMPLES_PER_CALL):
            begin = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - begin)

    def scale(self) -> float:
        """Factor that brings this run's times to the calm host's speed."""
        return NOMINAL_S / statistics.median(self.samples)
