"""Rescale measured times to a reference CPU speed.

On a shared 2-core virtual machine the same work can take anywhere from
1x to 2x as long from one second to the next, so raw wall times of
identical runs spread by tens of percent.  While a unit of work runs,
SpeedProbe interrupts it every PERIOD_S seconds (SIGALRM) to time fixed
calibration snippets that never touch the package, so a change to the
package cannot move them.  Each snippet time gives a speed, its
reference time over the measured time; a sample is the geometric mean of
the speeds of the snippets the probe uses.  The unit's wall time, minus
the time spent in the probe, times the mean sample speed is its time in
reference seconds.

Interpreter-bound and memory-bound code slow down by different amounts,
so a probe uses the snippets of the work it times: "python" (exact
rationals, floats, small objects, a dict) for pure-Python work, and
"python" with "numpy" (a matrix-vector product, a comparison and
reductions over a few MB) for work that is mostly numpy.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.1
MIN_SAMPLES = 5

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(1 << 19)
_POINTS = _RNG.random((1 << 16, 4))
_COEFFS = np.array([1.0, -1.0, 0.5, 0.25])


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi


def python_snippet() -> float:
    """Fixed mix of exact-rational, float, small-object and dict work."""
    frac = Fraction(0)
    acc = 0.0
    table = {}
    for i in range(1, 120):
        frac += Fraction(i, 7)
        box = _Box(i * 0.5, (i + 1) * 0.5)
        acc += (box.hi - box.lo) / (i + 1.0)
        table[i, box.lo] = box
    for i in range(1, 120):
        acc += table[i, i * 0.5].hi
    return acc + float(frac)


def numpy_snippet() -> float:
    """Fixed array work of the kind Monte Carlo sampling does."""
    return float(np.count_nonzero(_POINTS @ _COEFFS > 0.3)) + float(np.sqrt(_VALUES).sum())


SNIPPETS = {"python": python_snippet, "numpy": numpy_snippet}
# Snippet times at the reference speed, close to their typical times on a
# 2-core Intel Xeon virtual machine running Python 3.11.7 and numpy 2.4.
REFERENCE_S = {"python": 3.5e-4, "numpy": 1.0e-3}


def _fastest_of_two(fn) -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def speed_sample(kinds: tuple[str, ...]) -> float:
    """Current speed relative to the reference: geometric mean over the snippets of kinds."""
    return math.prod(REFERENCE_S[k] / _fastest_of_two(SNIPPETS[k]) for k in kinds) ** (1.0 / len(kinds))


class SpeedProbe:
    """Times one unit of work: raw_s as measured, reference_s = (raw_s - probe time) * factor.

    Samples are taken at equal wall-clock intervals, so the work done in
    each scales with its speed and the factor is the mean sample speed.
    """

    def __init__(self, kinds: tuple[str, ...] = ("python",)) -> None:
        self.kinds = kinds
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.factor = 1.0
        self.reference_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(speed_sample(self.kinds))
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        # A unit shorter than a few periods is calibrated right after it.
        extra = [speed_sample(self.kinds) for _ in range(MIN_SAMPLES - len(self.samples))]
        self.factor = statistics.fmean(self.samples + extra)
        self.reference_s = (self.raw_s - self._spent) * self.factor
