"""Scale timings on a shared host to one reference machine speed.

On a shared 2-core host the same pass can take anywhere from 1x to 2x its
quiet time, in bursts well under a second that come and go over minutes,
so medians of raw wall time drift by 20-30% between runs a few minutes
apart. ``SpeedProbe`` measures the machine's speed while the timed code
runs: a SIGALRM every ``PERIOD_S`` runs a fixed pure-Python loop and
records how long it took. A timing is then reported as

    (wall - time spent in the probe) * mean(REFERENCE_LOOP_S / loop time)

that is, the seconds the code would have taken on a machine running the
loop in ``REFERENCE_LOOP_S``, its time on a quiet core of the reference
host (2-core Xeon, Python 3.11). The probe loop is independent of the
program, so a faster program still reads faster.

The probe is a signal handler, not a thread: it runs between bytecodes of
the one benchmark thread. It is used only while timed code runs. This
module imports only small standard modules, so a fresh interpreter can
load it before timing its own imports.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from typing import Iterator

PERIOD_S = 0.01
REFERENCE_LOOP_S = 0.0004
_LOOP_ITERATIONS = 400


def _probe_loop() -> float:
    # String, dict, float and tuple work, the mix the pipeline runs on.
    counts: dict[str, int] = {}
    acc = 0.0
    for i in range(_LOOP_ITERATIONS):
        word = "w%d" % (i % 97)
        counts[word] = counts.get(word, 0) + 1
        acc += math.sqrt(i) * 0.5
        acc += sum(tuple(ord(ch) / 127 for ch in word))
    return acc


class SpeedProbe:
    """Loop timings taken before, during and after one timed block."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.in_block_s = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        _probe_loop()
        elapsed = time.perf_counter() - start
        self.loops.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.in_block_s += self._sample()

    @contextmanager
    def sampling(self) -> Iterator["SpeedProbe"]:
        """Sample the machine speed for the duration of the block."""
        self._sample()  # so that even a block shorter than PERIOD_S has samples
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def factor(self) -> float:
        """Reference speed over the speed seen: scales a wall time."""
        return sum(REFERENCE_LOOP_S / loop for loop in self.loops) / len(self.loops)

    def scaled(self, wall_s: float) -> float:
        """``wall_s``, measured inside the block, at the reference speed."""
        return (wall_s - self.in_block_s) * self.factor()
