"""The machine's speed, sampled while each timed step runs.

The benchmark runs on shared machines whose CPU speed changes by up to a
factor of two from one second to the next (another tenant takes the
other half of the core, then lets it go).  A timed step is therefore
reported in *reference seconds*: a ``Sampler`` interrupts the process
every ``INTERVAL_S`` and times ``probe()``, a fixed piece of pure-Python
work that touches no polardl code, and a step's reference seconds are
its wall time, less the time spent in the samples, times how fast the
probe ran during the step relative to ``REFERENCE_PROBE_S``.  A change
to polardl moves the step and not the yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time

# probe() on the reference machine; a figure in reference seconds is the
# wall time the step would take there
REFERENCE_PROBE_S = 60e-6
INTERVAL_S = 0.01
# a step shorter than this many intervals is scaled by the latest samples
MIN_SAMPLES = 5


def probe():
    """Wall seconds of one pass of the fixed work: dict reads and writes
    and integer arithmetic, the kind the interpreter spends polardl's
    time on."""
    t0 = time.perf_counter()
    counts = {}
    total = 0
    for i in range(300):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        total += i * i
    return time.perf_counter() - t0


class Sampler:
    """Times ``probe()`` on a SIGALRM every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.rates = []         # probes per second, one per sample
        self.spent = 0.0        # wall seconds spent sampling

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()                 # the step left the caches cold
        self.rates.append(1.0 / probe())
        self.spent += time.perf_counter() - t0

    def start(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.rates), self.spent

    def reference(self, seconds, start, end):
        """``seconds`` of wall time between the marks ``start`` and
        ``end``, in reference seconds."""
        rates = self.rates[start[0]:end[0]]
        if len(rates) < MIN_SAMPLES:
            rates = self.rates[max(0, end[0] - MIN_SAMPLES):end[0]]
        busy = seconds - (end[1] - start[1])
        return busy * REFERENCE_PROBE_S * statistics.fmean(rates)


class Meter:
    """Times named steps: ``wall[name]`` in wall seconds and
    ``reference[name]`` in reference seconds.  Without ``calibrate`` no
    sampler runs and the reference figures are the wall figures."""

    def __init__(self, calibrate=True):
        self.sampler = Sampler() if calibrate else None
        self.wall = {}
        self.reference = {}
        if self.sampler:
            self.sampler.start()

    def run(self, name, fn, *args):
        """``fn(*args)`` as the step ``name``."""
        start = self.sampler.mark() if self.sampler else None
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        self.wall[name] = seconds
        self.reference[name] = (
            self.sampler.reference(seconds, start, self.sampler.mark())
            if self.sampler else seconds)
        return out

    def stop(self):
        if self.sampler:
            self.sampler.stop()
