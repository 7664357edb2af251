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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


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


@dataclass
class StepRecord:
    """Per-update measurement row emitted by instrumented runs."""

    step: int
    update: tuple | None
    answer: int
    n_base: int
    db_size: int
    ops: dict[str, int] = field(default_factory=dict)
    space: int = 0
    major: bool = False
    minor: bool = False


def record(step: int, update, engine, prev_ops: dict[str, int] | None = None) -> StepRecord:
    """Snapshot an engine after one update.

    ``ops`` holds cumulative counters; when ``prev_ops`` is given the
    rebalance flags are derived from the counter deltas.
    """
    ops = engine.counters.snapshot()
    major = minor = False
    if prev_ops is not None:
        major = ops["rebalance_major"] > prev_ops["rebalance_major"]
        minor = ops["rebalance_minor"] > prev_ops["rebalance_minor"]
    return StepRecord(
        step=step,
        update=update,
        answer=engine.answer(),
        n_base=engine.N,
        db_size=engine.db_size,
        ops=ops,
        space=engine.space_used(),
        major=major,
        minor=minor,
    )


def fit_scaling(sizes: Sequence[int], totals: Sequence[float]) -> float:
    """Least-squares slope of log(total) against log(size).

    Needs at least three sizes; zero totals are clamped to one so that
    empty runs do not blow up the logarithm.
    """
    if len(sizes) < 3:
        raise ValueError("need at least three sizes to fit an exponent")
    if len(sizes) != len(totals):
        raise ValueError("sizes and totals must align")
    xs = np.log([float(s) for s in sizes])
    ys = np.log([max(1.0, float(t)) for t in totals])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def synthetic_totals(n: int, per_step) -> int:
    """Sum of a per-step cost model over a run of length ``n``.

    Used by calibration tests, e.g. ``per_step=lambda i: math.isqrt(i) + 1``
    gives totals growing like n^(3/2).
    """
    return sum(per_step(i) for i in range(1, n + 1))


def replay_audit(engine_factory, stream) -> bool:
    """Run a stream twice on fresh engines and compare counters.

    The update path must be deterministic: identical streams on identical
    configurations account identical primitive work. Returns True when the
    two counter snapshots agree and every category is consistent.
    """
    a = engine_factory()
    b = engine_factory()
    for rel, t, m in stream:
        a.on_update(rel, t, m)
    for rel, t, m in stream:
        b.on_update(rel, t, m)
    return a.counters.snapshot() == b.counters.snapshot()
