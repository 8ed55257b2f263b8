"""A fixed probe of how fast this CPU runs right now.

On a shared host the speed of one vCPU moves by up to a factor of two over
seconds, as neighbours load its sibling hyperthread; the same code then
takes twice the wall time and twice the CPU time.  The benchmark runs this
probe before, during and after every step it measures and divides the
step's wall time by the probe's mean slowdown, so a timing reads the same
whether it fell into a fast or a slow phase.

The probe does the kind of work gridcert does (interpreted loops over
small Python objects, small numpy arrays, CSV text, an eigenvalue problem
and wide matrix-vector products) but calls no gridcert code, so a change
to the program never changes the probe.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from numpy.linalg import eigvals

# Probe time of one batch that counts as "reference speed".  Normalised
# timings are wall seconds at that speed; the value only sets the scale.
REF_BATCH_S = 0.006
BATCHES = 2


class _Line:
    __slots__ = ("a", "b", "x")

    def __init__(self, a, b, x):
        self.a, self.b, self.x = a, b, x

    def key(self):
        return (min(self.a, self.b), max(self.a, self.b))


_LINES = [_Line(i, (i * 7) % 61 + 1, 0.4 + (i % 5) * 0.05) for i in range(1, 61)]
_V = np.linspace(0.0, 1.0, 900)
_W = np.eye(900) * 0.5 + 0.001
_E = np.random.default_rng(0).standard_normal((72, 72))
_S = np.random.default_rng(1).standard_normal((40, 6))


def _work():
    """Roughly equal parts of interpreted loops over small objects and arrays,
    CSV text written from numpy scalars and parsed back, and dense linear
    algebra (an eigenvalue problem and wide matrix-vector products)."""
    acc = 0.0
    for k in range(1, 41):
        s = 0.0
        for ln in _LINES:
            if ln.key()[0] == k or ln.b == k:
                s += 1.0 / ln.x
        m = np.array([[0.0, 1.0, 0.0], [-s, -0.1, 1.0], [0.0, 0.0, -1.0 / (1.0 + k)]])
        acc += float((m @ m)[1, 1]) + float(np.abs(eigvals(m)).max())
    buf = io.StringIO()
    writer = csv.writer(buf)
    for _ in range(3):
        for k in range(_S.shape[0]):
            writer.writerow([k] + [repr(float(_S[k, j]) + 0.0) for j in range(_S.shape[1])])
    buf.seek(0)
    acc += sum(float(row[1]) for row in csv.reader(buf))
    for k in range(3):
        acc += float((_W @ _V)[k])
    return acc + float(eigvals(_E).real.max())


def probe():
    """Wall seconds of ``BATCHES`` probe batches, divided by ``BATCHES``."""
    t0 = perf_counter()
    for _ in range(BATCHES):
        _work()
    return (perf_counter() - t0) / BATCHES


def slowdown(before, after):
    """How much slower than reference speed the CPU ran between two probes."""
    return 0.5 * (before + after) / REF_BATCH_S


class Meter:
    """Times a block and the CPU's speed while it runs.

    A probe runs before the block and after it, and inside it every
    ``INTERVAL_S`` of wall time from a ``SIGALRM`` handler, so a block of
    several seconds is sampled as it goes rather than only at its ends.
    ``spent`` is the wall time the in-block probes took, summed over every
    block so far; the block's ``wall_s`` leaves it out, and so does a
    tracer that reads ``spent`` around each call.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.spent = 0.0
        self._samples = None
        # installed for good: a tick that lands after a block must not meet
        # the default action, which ends the process
        signal.signal(signal.SIGALRM, self._tick)

    def clock(self):
        """Wall seconds, less the time in-block probes took."""
        return perf_counter() - self.spent

    def _tick(self, signum, frame):
        if self._samples is None:
            return
        t0 = perf_counter()
        _work()
        dt = perf_counter() - t0
        self._samples.append(dt)
        self.spent += dt

    @contextmanager
    def block(self):
        """Yields a dict that holds ``wall_s`` and ``slowdown`` once the block ends."""
        out = {}
        self._samples = [probe()]
        spent0 = self.spent
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0
            out["wall_s"] = wall - (self.spent - spent0)
            self._samples.append(probe())
            out["slowdown"] = statistics.fmean(self._samples) / REF_BATCH_S
            self._samples = None
