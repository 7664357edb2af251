"""Operation accounting and scaling probes.

Engines count their primitive work in an ``OpCounters`` object: one
``iterations`` tick per executed loop body, one ``lookups`` tick per
standalone point probe, one ``moves`` tick per tuple migrated during
rebalancing, plus event counters for major and minor rebalances. Summed,
these are a machine-independent proxy for running time, which is the
primary signal here; wall-clock time is reported only as a secondary
column by the benchmark driver.

``fit_scaling`` turns a series of (size, cumulative ops) measurements into
a log-log slope, the desk-scale stand-in for an asymptotic exponent.
"""

from __future__ import annotations

import math
from typing import Sequence


class OpCounters:
    """Monotone counters of primitive lookups, iterations and moves."""

    __slots__ = ("lookups", "iterations", "moves", "rebalance_major", "rebalance_minor")

    def __init__(self):
        self.lookups = 0
        self.iterations = 0
        self.moves = 0
        self.rebalance_major = 0
        self.rebalance_minor = 0

    def total_steps(self) -> int:
        """Primitive-step total: lookups + iterations + moves."""
        return self.lookups + self.iterations + self.moves

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return f"OpCounters({self.snapshot()})"


def fit_scaling(sizes: Sequence[int], totals: Sequence[float]) -> float:
    """Least-squares slope of log(total) against log(size).

    Needs at least three sizes; zero totals are clamped to one so that
    empty runs do not blow up the logarithm.
    """
    if len(sizes) < 3:
        raise ValueError("need at least three sizes to fit an exponent")
    if len(sizes) != len(totals):
        raise ValueError("sizes and totals must align")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(1.0, t)) for t in totals]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
