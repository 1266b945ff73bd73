"""Machine-speed calibration: a fixed kernel timed around every timed call.

The benchmark shares a few cores of a busy host, and those cores run
faster or slower as other tenants' load comes and goes: a pure-Python
loop of fixed work took anywhere from 0.13 s to 0.41 s within minutes,
in process CPU time as much as in wall time (README.md, "Machine
noise").  Such a shift moves every timing of a run together and hides
any change to the program.

So the benchmark times this kernel, which belongs to the benchmark and
calls no invarmine code, right before every timed call (a CLI command,
or one block of library calls) and once after the last.  A sample is
scaled to the reference speed, at which the kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / kernel_time

where kernel_time is the mean of the four kernel runs nearest the
sample, two before it and two after (fewer at the ends of a run): near
enough to follow the host's shifts, which last seconds to minutes, and
enough of them that one slow kernel run does not decide a sample.  A
change to the program moves the sample and not the kernel, so it moves
the scaled figure; a change of the host's speed moves both, and cancels.

The kernel has two parts, timed apart.  The interpreter part is pure
Python: formatting and parsing numbers, dict updates, JSON encoding, and
method calls on small objects inside all() over generators, the way
score_point tests predicates.  The numpy part sorts, scans and masks a
200k array.  The host's shifts slow the interpreter part more than the
numpy part (about 1.5x against 1.2x in one busy stretch), so samples of
score_point, which runs no numpy code, are scaled by the interpreter
part alone (REFERENCE_PYTHON_S), and every other sample, whose calls mix
both kinds of work, by the whole kernel.  The collector is off while the
kernel runs, so the program's live objects do not change its time.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# fixed round figures near the kernel's median times on a 2-vCPU KVM guest
# (Intel Xeon, 2.0 GHz; Python 3.11.7, numpy 2.4.6); they only set the unit
REFERENCE_S = 0.06
REFERENCE_PYTHON_S = 0.03

_rng = np.random.default_rng(20221124)
_FLOATS = _rng.normal(size=10_000).tolist()
_ARRAY = _rng.random(200_000)
_ROWS = [tuple(r) for r in _rng.normal(size=(150, 8)).tolist()]


class _Bound:
    __slots__ = ("col", "low", "high")

    def __init__(self, col: int, low: float) -> None:
        self.col, self.low, self.high = col, low, low + 1.5

    def holds(self, row: tuple) -> bool:
        value = row[self.col]
        return self.low <= value < self.high


_RULES = [
    [_Bound(int(c), float(low)) for c, low in zip(_rng.integers(0, 8, 3), _rng.normal(size=3))]
    for _ in range(40)
]


def _interpreter_work() -> None:
    texts = [repr(x) for x in _FLOATS]
    values = [float(t) for t in texts]
    sums: dict[int, float] = {}
    for i, v in enumerate(values):
        key = i % 1009
        sums[key] = sums.get(key, 0.0) + v
    json.dumps(sums)
    hits = 0
    for row in _ROWS:
        for rule in _RULES:
            if all(p.holds(row) for p in rule):
                hits += 1


def _numpy_work() -> None:
    for _ in range(3):
        order = np.argsort(_ARRAY)
        np.cumsum(_ARRAY[order])
        int((_ARRAY > 0.5).sum())


def kernel() -> tuple[float, float]:
    """Runs the fixed work once; returns the wall times of its interpreter
    part and its numpy part, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter_work()
        middle = time.perf_counter()
        _numpy_work()
        return middle - start, time.perf_counter() - middle
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """The kernel times of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.python: list[float] = []
        self.times: list[float] = []  # whole kernel

    def mark(self) -> int:
        """Times the kernel; samples taken next are scaled by this mark."""
        python_s, numpy_s = kernel()
        self.python.append(python_s)
        self.times.append(python_s + numpy_s)
        return len(self.times) - 1

    def scale(self, mark: int, python_only: bool = False) -> float:
        """The reference time over the kernel time around a sample taken
        after `mark`: the mean of marks mark-1 to mark+2, those that exist.
        python_only uses the interpreter part of the kernel."""
        times, reference = (self.python, REFERENCE_PYTHON_S) if python_only else (self.times, REFERENCE_S)
        near = times[max(0, mark - 1) : mark + 3]
        return reference / (sum(near) / len(near))

    def median(self) -> float | None:
        return float(np.median(self.times)) if self.times else None
