"""Timing under a noisy shared host: core choice, best-of-repetitions figures.

The cores of a small shared box are slowed by load outside the container,
by up to about 2x, in spells that last from a fraction of a second to
minutes; in a busy spell even the fastest moments of a whole run can be
slower than usual.  A mean or median over all operations of a run
therefore measures the host's load as much as the program.

So every timed loop cycles through a fixed, seeded list of inputs many
times, and each input's latency is the best of its repetitions: the time
the operation takes when the core is not slowed.  The repetitions of one
input are spread evenly over the whole run, so a busy spell delays only
some of them.  The end-to-end figures are statistics over the inputs of
those best times; they are what a change to the program moves, and they
repeat from run to run.  Before each timing window the benchmark also
moves itself to whichever allowed core runs a fixed probe loop fastest.

Set-up time is a fresh interpreter's, so it cannot repeat; its samples
are spread over the run instead, and their median counts.

Only one core is busy at any time: the probes and the work run in turn.
"""

from __future__ import annotations

import math
import os
import statistics
import time

PROBE_LOOPS = 3000
TAIL_BEYOND = 10
TAIL_CAP = 99.0


def _spin() -> float:
    start = time.perf_counter()
    acc = 0.0
    for k in range(PROBE_LOOPS):
        acc += k * 0.5
    return time.perf_counter() - start


class CoreChooser:
    """Moves the process to the currently fastest allowed core."""

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def choose(self):
        """Probe every core and stay on the fastest."""
        if len(self.cores) < 2:
            return
        best = None
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            value = _spin()
            if best is None or value < best[0]:
                best = (value, core)
        os.sched_setaffinity(0, {best[1]})

    def release(self):
        if self.cores:
            os.sched_setaffinity(0, set(self.cores))


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile q (0..100) of a sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it, capped at TAIL_CAP.

    Below 2 * TAIL_BEYOND samples no percentile at or above the median
    qualifies; the median is used then.
    """
    return min(TAIL_CAP, max(50.0, 100.0 * (1.0 - TAIL_BEYOND / count)))


def timing_stats(best: list[float]) -> dict:
    """Figures over the inputs that ran, from each input's best time in seconds."""
    ordered = sorted(b for b in best if math.isfinite(b))
    q_tail = tail_percentile(len(ordered))
    return {
        "throughput_per_s": len(ordered) / math.fsum(ordered),
        "latency_p50_us": statistics.median(ordered) * 1e6,
        "latency_tail_us": percentile(ordered, q_tail) * 1e6,
        "tail_percentile": q_tail,
        "inputs": len(ordered),
    }
