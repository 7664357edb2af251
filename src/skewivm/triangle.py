"""Adaptive maintenance of the three-relation triangle count.

Maintains ``q = sum_{a,b,c} R(a,b) * S(b,c) * T(c,a)`` under single-tuple
inserts and deletes. The triangle is the cyclic count of degree 3, so the
engine is ``LWEngine(3)`` (``skewivm.loomis_whitney``) with the relations
named R, S and T, each split on its join-out variable (A for R, B for S, C
for T). For an update the generated plan scans the previous relation's
heavy part at the shared value (both other relations heavy), looks the
update up in a wedge view (next heavy, previous light), and scans the next
relation's light part, probing both parts of the previous one (next
light). Heavy updates keep the wedge their relation anchors, light
updates the one it ends. Heavy parts are indexed on both variables, light
parts on their partition key only.

Each relation takes its own exponent. At 0 or 1 (everything pinned heavy,
resp. light, all wedges empty) the engine is classical first-order
maintenance; mixed 0/1 assignments give the single-materialized-view
factorized scheme.
"""

from __future__ import annotations

from .loomis_whitney import LWEngine, _plan, compiled
from .metrics import OpCounters

REL_NAMES = ("R", "S", "T")

# the plan of the triangle and self-join engines, compiled at import
compiled(_plan, 3)


class TriangleEngine(LWEngine):
    """Triangle count under single-tuple updates, constant answer time."""

    REL = REL_NAMES
    DEGREE = 3

    # perfbench's tracer wraps the update methods in each engine class's own
    # __dict__; this engine's delta and update step are bound per engine
    on_update = LWEngine.on_update

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(self.DEGREE, eps, counters)


def static_count(db: dict) -> int:
    """Count triangles in a static database.

    The balanced engine's loader splits each relation strictly by key
    degree, builds the wedges and sums the one-hop sums over R: no
    rebalancing runs, and each sum stays within the per-update budget.
    """
    return TriangleEngine.preprocess(db, 0.5).answer()
