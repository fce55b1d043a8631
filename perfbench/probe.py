"""Machine-speed probe: scales the operation times of a pass to one fixed
machine speed.

The benchmark runs on a shared machine whose speed drifts by a third and
more over seconds to minutes, as other work comes and goes on the same
cores.  While a timed section runs, an interval timer interrupts it every
``PERIOD_S`` and runs a fixed kernel, the benchmark's own code that does the
kinds of work the program's hot loops do; each run of the kernel is one
sample of the machine's current speed.  An operation's scaled time is its
wall time, less the samples taken inside it, times ``NOMINAL_KERNEL_MS``
over the median duration of the samples taken within ``WINDOW_S`` of it.

The kernel never calls the program, so a change to the program moves the
scaled times as it moves the wall times.  What the kernel cannot separate
from machine speed is the state the program leaves the processor caches
in: a program change that touches much less or much more memory also
makes the kernel a little faster or slower, which takes a little off the
scaled change.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

PERIOD_S = 0.02
# Untimed runs of the kernel first, so that no sample is its first run.
WARMUP = 20
# An operation's speed is the median of the samples inside it and within
# this time before and after it: a single sample can be off by half, while
# the machine's speed moves over seconds.
WINDOW_S = 0.1
# The kernel's duration amid the program's work on a shared 2-core x86-64
# at 2.1 GHz with Python 3.11, at its quiet moments: scaled times read
# about as wall times on that machine when it is quiet.
NOMINAL_KERNEL_MS = 0.25


def _compositions(n):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in _compositions(n - k)]


# The kernel allocates no object the garbage collector tracks (its keys are
# ints, its containers are made once and reused), so that sampling does not
# move the program's collections from one operation to another.
_TERMS = [(hash(c), (i % 7) - 3) for i, c in enumerate(_compositions(5))]
_PRODUCT = {}
_PERMUTATIONS = list(itertools.islice(itertools.permutations(range(6)), 120))
_SHIFT = (1, 2, 3, 4, 5, 0)
_COMPOSED = [0] * 6
_SEEN = [False] * 6


def kernel():
    """A product of two 16-term elements held as dicts, and the cycle counts
    of 120 composed permutations: the kinds of work of the program's algebra
    and of its permutation and partition oracles."""
    terms = _PRODUCT
    terms.clear()
    for i, a in _TERMS:
        for j, b in _TERMS:
            k = i ^ (j * 1000003)
            terms[k] = terms.get(k, 0) + a * b
    perm, seen = _COMPOSED, _SEEN
    cycles = 0
    for p in _PERMUTATIONS:
        for x in range(6):
            perm[x] = _SHIFT[p[x]]
            seen[x] = False
        for start in range(6):
            if not seen[start]:
                cycles += 1
                while not seen[start]:
                    seen[start] = True
                    start = perm[start]
    return len(terms), cycles


class Probe:
    """Samples the kernel before, every ``PERIOD_S`` during, and after a
    timed section (``with Probe() as probe: ...``)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._handler = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(WARMUP):
            kernel()
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()
        return False

    def scale(self, spans):
        """For each operation ``(start, end)``, its time in ms without the
        samples inside it, and that time scaled to the nominal speed."""
        raw, scaled = [], []
        starts, durations = self.starts, self.durations
        for a, b in spans:
            first = bisect.bisect_left(starts, a)
            end = bisect.bisect_right(starts, b)
            inside = durations[first:end]
            # at least the last sample before the operation and the first
            # one after it
            lo = min(bisect.bisect_left(starts, a - WINDOW_S), max(first - 1, 0))
            hi = max(bisect.bisect_right(starts, b + WINDOW_S), end + 1)
            around = durations[lo:hi]
            ms = (b - a - sum(inside)) * 1e3
            raw.append(ms)
            scaled.append(ms * NOMINAL_KERNEL_MS / (statistics.median(around) * 1e3))
        return raw, scaled
