"""Host speed, read off a fixed reference kernel around every timed section.

The benchmark runs on a few cores of a shared machine whose speed drifts
with its neighbours' load.  On a 2-vCPU Intel Xeon virtual machine a fixed
pure-Python loop slowed from 15.5 ms to 24 ms within 40 s, the reference
kernel below switched between about 0.6 ms and 0.9 ms every few seconds,
and one classify run read 7.0 queries/s and 10.0 queries/s half an hour
apart on the same seed.  A run-to-run spread of that size hides any change
to the program, so every end-to-end time the benchmark reports is scaled to
a reference host speed:

    reported = sum over pieces of (piece's seconds * REFERENCE_S / probe)

where a timed section is cut into pieces of at most ``TICK_S`` seconds by
a timer that probes the host inside it, and ``probe`` is the mean of the
reference kernel's times at the two ends of a piece, each the shortest of
``REPS`` runs (the shortest, so a preemption inside the probe does not count
as a slow host).  A short query is scaled by the probes just before and
just after it; a 3 s closure by a dozen, so the host changing speed under
it is followed too.  ``REFERENCE_S`` is a constant between the kernel's two
times on that machine, so reported times read roughly as seconds there.

The kernel imports nothing from assocf, so no change to the program moves
it, and a slower program still reads slower.  It mixes the two kinds of
work the workloads do: pure-Python nested tuples hashed into a dict (trees,
thompson, rewriting) and a numpy table gather (the magma sweeps).  Probe time
is never part of a measured time.  The unscaled figures are printed too, and
per-layer self times stay unscaled (a probe that lands inside a traced span
adds to that span, about 1% of its time).
"""

from __future__ import annotations

import gc
import signal
import time

import numpy

REFERENCE_S = 0.0007
REPS = 3
TICK_S = 0.25
_TABLE = numpy.arange(64, dtype=numpy.uint8).reshape(8, 8) % 7
_ROWS = numpy.arange(1 << 16, dtype=numpy.intp) % 8
_COLS = (_ROWS * 5 + 3) % 8


def _kernel():
    tree, seen = (), {}
    for i in range(1000):
        tree = (tree, (i, i + 1)) if i % 3 else ((i,), tree)
        seen[(i % 97, i % 89)] = tree
    return len(seen) + int(_TABLE[_ROWS, _COLS].sum())


def probe():
    """Shortest of REPS timings of the reference kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times sections of work in reference seconds.

    ``start()`` and ``stop()`` bracket a section, in the main thread; inside
    it a SIGALRM timer probes the host every TICK_S seconds.  The probe that
    closes one section also opens the next; ``restart()`` probes afresh
    after a gap.
    """

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]
        self.begin = self.mark = 0.0
        self.scaled = self.excluded = 0.0
        self.previous = None

    def restart(self):
        """Probe again before a section that does not follow the last one."""
        self.last = probe()
        self.probes.append(self.last)

    def _piece(self, end, now_probe):
        self.scaled += (end - self.mark) * REFERENCE_S * 2 / (self.last + now_probe)
        self.last = now_probe
        self.probes.append(now_probe)

    def _tick(self, signum, frame):
        end = time.perf_counter()
        self._piece(end, probe())
        self.mark = time.perf_counter()
        self.excluded += self.mark - end

    def start(self):
        self.scaled = self.excluded = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.begin = self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """(raw seconds, reference seconds) of the section, probes left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self.previous)
        self._piece(end, probe())
        return end - self.begin - self.excluded, self.scaled
