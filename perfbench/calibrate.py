"""Machine-speed calibration.

On the 2-CPU virtual machine the baseline was measured on, each CPU flips
between a fast and a slow state (up to 1.8x apart) several times a
second, independently of the other CPU, and the mix drifts over
minutes.  Wall and CPU time follow it alike.  So a run pins itself to one
CPU, times a short `reference()` in bursts between its operations (at
most every 10 ms), and scales each operation's time to a nominal speed
by the bursts just before and just after it:

    normalized = measured * NOMINAL_S / mean(reference() times around it)

Over ten-second windows of bool-normalize this cut the spread of the
median from 0.16 (unscaled) and 0.12 (one scale for the whole run) to
0.03.  Operations of a second or more still vary by about 10%, as the
speed changes within them.  (Sampling inside operations from a timer
signal made that worse: the interrupted work had evicted the reference's
data.)  `reference()` must never change: every figure is expressed in
its speed.
"""

from __future__ import annotations

from time import perf_counter

# mean burst() time on the baseline machine (Python 3.11.7, 2 CPUs), so
# that scaled times read close to that machine's average wall times
NOMINAL_S = 0.00017


def reference() -> int:
    """Build, walk and tally a complete binary tree of 511 tuples."""

    def build(depth: int):
        return ("leaf", depth) if depth == 0 else ("node", build(depth - 1), build(depth - 1))

    def walk(t, tally: dict) -> int:
        if t[0] == "leaf":
            tally[t[1]] = tally.get(t[1], 0) + 1
            return 1
        return walk(t[1], tally) + walk(t[2], tally)

    return walk(build(8), {})


def burst(count: int = 3) -> float:
    """Mean seconds of `count` back-to-back reference() calls."""
    t0 = perf_counter()
    for _ in range(count):
        reference()
    return (perf_counter() - t0) / count
