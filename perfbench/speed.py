"""Machine-speed calibration.

The speed of a shared machine drifts by tens of percent over minutes, and
the program's CPU time drifts with it. A fixed pure-Python kernel that
shares no code with the repository is timed before and after every job; a
timing is divided by the mean slowdown of the two samples around it,
relative to ``REFERENCE_S``. Both the raw and the normalised seconds are reported.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# Median kernel duration on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11). Only the ratio of a run's samples to this value
# matters; changing it rescales every normalised time.
REFERENCE_S = 0.0030


def _graph(n: int = 90, p: float = 0.06) -> list[set[int]]:
    state = 12345
    adj: list[set[int]] = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            state = (state * 1103515245 + 12345) % 2 ** 31
            if state < p * 2 ** 31:
                adj[a].add(b)
                adj[b].add(a)
    return adj


_ADJ = _graph()


def kernel() -> int:
    """Work of the kinds the search does: small-object allocation (tuples,
    frozensets, dict buckets) and backtracking over set differences."""
    acc = 0
    for r in range(6):
        buckets: dict[tuple[int, int], list[frozenset[int]]] = {}
        for i in range(300):
            buckets.setdefault((i % 37, i % 11), []).append(
                frozenset((i, i + r, i * 3 % 17)))
        acc += len({x for group in buckets.values() for s in group for x in s})
    adj = _ADJ
    for a in range(len(adj)):
        for b in adj[a]:
            for c in adj[b] - {a}:
                acc += len(adj[c] - {a, b})
    return acc


class Speed:
    """Kernel samples taken between jobs, each the median of three runs."""

    def __init__(self):
        self.times: list[float] = []   # when each sample ended
        self.values: list[float] = []  # its kernel duration

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            runs.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.values.append(sorted(runs)[1])

    def factor(self, start: float, end: float) -> float:
        """Slowdown over [start, end]: the mean of the last sample before
        ``start`` and the first after ``end``, relative to the reference."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picks = self.values[max(before, 0):before + 1] + self.values[after:after + 1]
        return statistics.mean(picks or self.values[-1:]) / REFERENCE_S
