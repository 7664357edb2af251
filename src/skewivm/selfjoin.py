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
terms of the delta, in a ``delta`` method around the plan's
(``_delta``). The loaded count is ``LWEngine``'s, the plan's delta summed
over the edges: ``sum_{a,b} R(a, b) * sum_c R(b, c) * R(c, a)`` is the
query's definition, loops included, so no correction term enters.
"""

from __future__ import annotations

from .loomis_whitney import LWEngine
from .metrics import OpCounters


class SelfJoinEngine(LWEngine):
    """Self-join triangle count under single-tuple edge updates."""

    REL = ("R",)

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(3, eps, counters)
        # the instance's ``delta`` is the plan's; without it ``on_update``
        # calls this class's, which wraps the plan's
        del self.delta

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Change of the count for the delta ``m`` of edge ``t``."""
        dq = 3 * self._delta(0, t, m)
        if t[0] == t[1]:
            self.counters.lookups += 2
            dq += 3 * m * m * self.parts[0].multiplicity(t)
            dq += m * m * m
        return dq

    @classmethod
    def preprocess(cls, edges: dict, eps: float | tuple = 0.5,
                   counters: OpCounters | None = None) -> "SelfJoinEngine":
        """Ready state from a full edge relation ``{edge: multiplicity}``."""
        return super().preprocess([edges], eps, counters)
