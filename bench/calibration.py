"""Host-speed reference for the end-to-end times.

The shared host this benchmark runs on changes speed by up to 1.7x over
minutes, for every process alike, so a raw pass time mostly measures the
host.  A Sampler therefore runs a fixed reference task from a SIGALRM
handler every INTERVAL_S of wall time, inside the process that does the
work, so the samples fall between the program's own bytecodes and see
the same host speed.  A time is then reported in reference seconds:

    ref_s = (wall - time spent in the reference task) * scale
    scale = mean over the span's samples of NOMINAL_S / task time

that is, the time the work would take on a host where the reference task
takes exactly NOMINAL_S.  The samples come at even steps of wall time, so
the scale is the host's speed averaged over the span.  The task is a mix
like the library's: Fraction elimination, integer trial division and
tuple-keyed dict updates, all in the benchmark's own code.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import oracle

#: Wall time between two samples; the task takes about 2% of it.
INTERVAL_S = 0.05
#: Reference-task time that one reference second assumes.
NOMINAL_S = 0.001
#: A span's own scale is taken from the samples within LOCAL_PAD_S of it,
#: when there are at least LOCAL_MIN of them.
LOCAL_PAD_S = 0.25
LOCAL_MIN = 5

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6)] for i in range(6)]


def reference_task() -> None:
    """Fixed pure-Python work; the same on every call."""
    oracle.fraction_det(_MATRIX)
    sum(d for d in range(1, 2500) if 9699690 % d == 0)
    counts: dict = {}
    for k in range(400):
        key = (k % 37, k % 11)
        counts[key] = counts.get(key, 0) + 1


class Sampler:
    """Keeps (end time, task seconds) of every sample since start, and the
    total seconds spent in the task."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(durations: list[float]) -> float:
    """Factor from host seconds to reference seconds over a span, from the
    task times sampled in it."""
    if not durations:
        raise ValueError("no reference samples in the measured span")
    return sum(NOMINAL_S / d for d in durations) / len(durations)


def local_scales(samples: list[tuple[float, float]], spans, fallback: float) -> list[float]:
    """The scale of each (start, end) span from the samples near it, or
    fallback where there are too few."""
    ends = [t for t, _ in samples]
    out = []
    for start, end in spans:
        near = samples[bisect_left(ends, start - LOCAL_PAD_S):bisect_right(ends, end + LOCAL_PAD_S)]
        out.append(scale([d for _, d in near]) if len(near) >= LOCAL_MIN else fallback)
    return out
