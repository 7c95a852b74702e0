"""Speed probe: times reported at a fixed machine speed.

The benchmark shares a host whose speed drifts: a fixed pure-Python loop
takes anywhere from 1x to about 1.8x its fastest time, in phases of seconds
to minutes, and the groupapprox passes slow down with it.  Raw run medians
then differ by more than any useful regression bound from one run to the
next.  So a worker keeps a ``Speedometer`` running: every ``PERIOD_S``
seconds a timer signal interrupts it and times ``probe``, a fixed loop of
the benchmark's own that touches no groupapprox code.  A timed interval
[a, b] is then reported as

    (b - a - probe time inside [a, b]) * NOMINAL_MS / median probe time near [a, b]

that is, in seconds as they would read when the probe takes NOMINAL_MS.
"Near" is every probe that started within ``WINDOW_S`` of the interval,
so a long step is scaled by the probes taken while it ran and a short one
by those around it.  The probe allocates nothing the garbage collector
tracks, and runs between two bytecodes of the program, so it changes no
output.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW_S = 0.5
# about the probe's median time inside a worker on the 2-vCPU x86_64 machine
# the baseline was taken on, so that nominal times read close to measured ones
# there; a different value rescales every time alike
NOMINAL_MS = 0.65

_rng = random.Random(7)
_PERMS = [tuple(_rng.sample(range(8), 8)) for _ in range(64)]


def probe(n=4000):
    """A fixed loop of tuple lookups and integer sums, about NOMINAL_MS long.

    It creates no object the garbage collector tracks, so its time does not
    depend on the collections the program's own allocations are due.
    """
    acc = 0
    for i in range(n):
        p = _PERMS[i & 63]
        q = _PERMS[(i * 7) & 63]
        acc += p[q[0]] + p[q[3]] + p[q[6]]
    return acc


class Speedometer:
    """Times ``probe`` on a timer signal and rescales intervals by it."""

    def __init__(self):
        self.starts = []  # perf_counter at each probe's start, increasing
        self.ms = []  # each probe's duration

    def start(self):
        for _ in range(3):  # let the interpreter specialise the loop first
            probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        """Time one probe now and record it."""
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.ms.append((time.perf_counter() - t) * 1000)

    def probe_s(self, a, b):
        """Seconds of probing inside [a, b]."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return sum(self.ms[i:j]) / 1000

    def scale_ms(self, a, b):
        """Median probe time near [a, b]; the nearest probe if none is near."""
        i = bisect.bisect_left(self.starts, a - WINDOW_S)
        j = bisect.bisect_left(self.starts, b + WINDOW_S)
        if i < j:
            return statistics.median(self.ms[i:j])
        if not self.ms:
            raise RuntimeError("no speed probe ran")
        return min(zip(self.starts, self.ms), key=lambda sm: abs(sm[0] - a))[1]

    def normalize(self, a, b):
        """Seconds in [a, b], less probing, at the speed where a probe takes NOMINAL_MS."""
        return (b - a - self.probe_s(a, b)) * NOMINAL_MS / self.scale_ms(a, b)
