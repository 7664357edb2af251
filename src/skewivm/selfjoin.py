"""Triangle counting over a single self-joined edge relation.

Maintains ``q = sum_{a,b,c} R(a,b) * R(b,c) * R(c,a)`` under single-tuple
updates to R. The delta of the triple self-join is three times the
triangle delta with R = S = T, plus two correction terms active only for
loop edges (a, a): a quadratic one against the stored loop multiplicity
and a cubic one from the update alone (m squared and m cubed).

So the engine is the triangle's generated plan (``LWEngine`` at degree 3)
bound to one partition (on the source endpoint) standing in for all three
relations. It names one relation where the plan has three, so
``LWEngine`` keeps one wedge view in all three view slots, builds it once
and counts it once in ``space_used``; this engine adds only the loop
terms of the delta, in a ``step`` around the plan's update step
(``_step``), which ``on_update`` calls; like the plan's, its ``delta`` is
that step with no part, which returns the delta and changes nothing. The
loaded count is ``LWEngine``'s, the plan's delta summed over the edges: ``sum_{a,b} R(a, b) * sum_c R(b, c) * R(c, a)``
is the query's definition, loops included, so no correction term enters.
"""

from __future__ import annotations

from .loomis_whitney import LWEngine
from .metrics import OpCounters


class SelfJoinEngine(LWEngine):
    """Self-join triangle count under single-tuple edge updates."""

    REL = ("R",)
    DEGREE = 3

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(self.DEGREE, eps, counters)
        # the instance's ``delta`` and ``step`` are the plan's; without them
        # ``on_update`` calls this class's, which wrap the plan's
        del self.delta, self.step

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Change of the count for the delta ``m`` of edge ``t``."""
        return self.step(i, None, t, m)

    def step(self, i: int, label, t: tuple, m: int) -> int:
        """The plan's step, its delta taken three times plus the loop terms.

        With no part (``label`` ``None``) that delta is returned and
        nothing changes.
        """
        loop = self._loop(t, m)  # read before the update
        if label is None:
            return 3 * self._step(0, None, t, m) + loop
        Q = self._q
        q = Q[0]
        new = self._step(0, label, t, m)
        Q[0] += 2 * (Q[0] - q) + loop  # the plan's step added its delta once
        return new

    def _loop(self, t: tuple, m: int) -> int:
        """The terms of a loop edge: against its stored multiplicity, and of ``m`` alone."""
        if t[0] != t[1]:
            return 0
        self.counters.lookups += 2
        return 3 * m * m * self.parts[0].multiplicity(t) + m * m * m

    @classmethod
    def preprocess(cls, edges: dict, eps: float | tuple = 0.5,
                   counters: OpCounters | None = None) -> "SelfJoinEngine":
        """Ready state from a full edge relation ``{edge: multiplicity}``."""
        return super().preprocess([edges], eps, counters)
