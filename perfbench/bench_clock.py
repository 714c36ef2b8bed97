"""The run clock: pauses for a machine-speed probe, rescales to a nominal speed.

On a shared machine the CPU runs our code at different speeds from one
stretch of seconds to the next: on a 2-vCPU Xeon VM, identical reps
alternate between a fast and a ~1.5x slower mode, in stretches from
seconds to minutes.  A median over reps cannot remove a slow stretch
that covers a whole run.  So reps are interleaved with a fixed probe
kernel that never calls proxsplit: before the rep, after it, and
from the solver callback at least every PROBE_INTERVAL_S.  The probe
time is paused out of the clock.  Between two probes, time is rescaled
by NOMINAL_PROBE_S over the mean of the two probe times.  The result is
seconds at the speed where the probe takes NOMINAL_PROBE_S.  A slower
proxsplit still reads slower, and a slower machine does not.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

NOMINAL_PROBE_S = 0.002
PROBE_INTERVAL_S = 0.25


class Probe:
    """A ~2 ms kernel that mixes the kinds of work the workloads do: a
    Python loop of numpy scalar swaps, elementwise math on 1000 values,
    sparse row gathers with a product, a dense product like a Cholesky
    factorization's, and a Cholesky solve whose 5 MB factor, like the
    wide workload's, does not fit in L2."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(20171226))
        self.X = sp.random(20000, 300, density=0.04, format="csr", random_state=rng)
        self.rows = np.sort(rng.choice(20000, 1000, replace=False))
        M = rng.standard_normal((800, 800))
        self.factor = cho_factor(M @ M.T + 800.0 * np.eye(800), lower=True)
        self.v = rng.standard_normal(1000)
        self.z = rng.standard_normal(300)
        self.b = rng.standard_normal(800)
        self.dense = rng.standard_normal((160, 160))
        self.pool = np.arange(5000)
        self.u = rng.random(400)

    def __call__(self):
        """Median seconds of three passes after an untimed one.  The first
        pass brings the probe's data back into cache, so the timed passes
        do not depend on how much of it the workload evicted."""
        self._kernel()
        seconds = []
        for _ in range(3):
            start = perf_counter()
            self._kernel()
            seconds.append(perf_counter() - start)
        return sorted(seconds)[1]

    def _kernel(self):
        pool, n = self.pool, self.pool.shape[0]
        for i in range(self.u.shape[0]):
            j = i + int(self.u[i] * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        for _ in range(8):
            a = np.abs(self.v)
            np.where(self.v > 0.0, np.exp(-a), 1.0 / (1.0 + np.exp(-a)))
        for _ in range(2):
            self.X[self.rows] @ self.z
        self.dense @ self.dense
        cho_solve(self.factor, self.b)


class Clock:
    """perf_counter minus the time spent probing; probe=None never probes."""

    def __init__(self, probe=None):
        self._probe = probe
        self._paused = 0.0
        self.marks = []  # (clock reading, probe seconds)

    def now(self):
        return perf_counter() - self._paused

    def probe(self):
        if self._probe is None:
            return
        at = self.now()
        start = perf_counter()
        seconds = self._probe()
        self._paused += perf_counter() - start
        self.marks.append((at, seconds))

    def tick(self):
        """Probe when PROBE_INTERVAL_S has passed since the last probe."""
        if self._probe is not None and self.now() - self.marks[-1][0] >= PROBE_INTERVAL_S:
            self.probe()

    def nominal(self, reading):
        """A clock reading mapped to seconds at the nominal probe speed,
        counted from the first probe."""
        at = np.array([m[0] for m in self.marks])
        probe = np.array([m[1] for m in self.marks])
        rate = NOMINAL_PROBE_S / (0.5 * (probe[1:] + probe[:-1]))
        mapped = np.concatenate([[0.0], np.cumsum(rate * np.diff(at))])
        return float(np.interp(reading, at, mapped))
