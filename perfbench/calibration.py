"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared machine whose speed drifts by
up to about 2x for minutes at a time; CPU time equals wall time through such
a drift, so it is the cores that slow, not the scheduler.  One round of this
reference is a pure-Python integer loop: of the loops tried on such a host
(NumPy arithmetic on a (4000, 2) array, a banded Cholesky solve, page faults
on fresh memory, and this one), it slowed most nearly in step with the
workloads' operations.  The benchmark times rounds between its operations,
for a fixed share of each operation's time so that they sample the drift as
evenly as the operations do, and divides the operations' median wall time by
the rounds' median: a drift that slows both cancels, while a change to the
package moves only the operations.
"""

from __future__ import annotations

import time
from statistics import median

MIN_ROUNDS = 5  # per call, i.e. before the first operation and after each one
SHARE = 0.15  # of the preceding operation's time spent on rounds after it
# About the median round on the reference machine (2 vCPUs of an Intel Xeon),
# where single rounds ranged 0.025-0.044 s with the drift; normalised times are wall
# times scaled to that speed.
REFERENCE_ROUND_S = 0.030


def _round() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(320_000):
        s += i * i % 7
    return time.perf_counter() - t0


def rounds(seconds: float) -> list[float]:
    """Wall times of back-to-back rounds: at least MIN_ROUNDS, and for at least ``seconds``."""
    out = []
    while len(out) < MIN_ROUNDS or sum(out) < seconds:
        out.append(_round())
    return out


def normalised(wall_s: list[float], round_s: list[float]) -> float:
    """Median wall time at the reference machine's speed."""
    return median(wall_s) * REFERENCE_ROUND_S / median(round_s)
