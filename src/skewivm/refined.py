"""Triangle counting with two-variable relation partitions.

Same query and same update-time budget as the base engine, but every
relation is split on the degrees of both of its variables into four parts
(hh, hl, lh, ll). The payoff is space: the view ``views[v]`` joins the
next relation's hl part with the previous relation's lh part, summed over
the variable they share, so its size is capped both by "entries times
light budget" and by "heavy keys squared", linear at the exponent 1/2.

The engine is the degree-3 cyclic plan of ``skewivm.loomis_whitney``, on
``QuadPartition`` splits: its generator compiles this module's plan
(``_plan``) once per plan and degree. For an update ``(x, y)`` to relation
v, the next relation holding ``(y, z)`` and the previous one ``(z, x)``,
the sixteen part combinations share six walks and a view lookup:

  * the previous relation's hh and hl columns at x, probing the next
    relation's hh and hl rows at y;
  * the next relation's hh row at y, probing the previous relation's ll
    and lh parts through its column at x;
  * the previous relation's ll column at x, probing the next one's hl part;
  * the next relation's lh and ll rows at y, probing all four parts of the
    previous relation through its column at x;
  * ``views[v]`` at the update tuple (next hl, previous lh).

Only updates landing in an hl part (the previous relation's view) or an lh
part (the next relation's) keep a view. Minor rebalancing
(``QuadPartition``'s check, run by the engine) looks at both variables of
the updated tuple and can fire twice for one update.
"""

from __future__ import annotations

from .loomis_whitney import SUM, LWEngine, Plan, compiled
from .metrics import OpCounters
from .relation import IDX1, QUAD_LABELS

REL_NAMES = ("R", "S", "T")


def _plan(n: int) -> Plan:
    """The refined plan: each view joins the next relation's hl part with the previous one's lh."""
    every = ("ll", "lh", "hh", "hl")
    deltas, upkeep = [], []
    for v in range(n):
        prev, nxt = (v - 1) % n, (v + 1) % n
        deltas.append(
            [(v, prev, side, ((nxt, ("hh", "hl")),), None) for side in ("hh", "hl")]
            + [(v, nxt, "hh", ((prev, ("ll", "lh"), IDX1),), None),
               (v, prev, "ll", ((nxt, ("hl",)),), None)]
            + [(v, nxt, side, ((prev, every, IDX1),), None) for side in ("lh", "ll")])
        upkeep.append({"hh": [], "hl": [(v, nxt, "lh", (), prev)],
                       "lh": [(v, prev, "hl", (), nxt)], "ll": []})
    builds = [(((i - 1) % n, "lh"), ((i + 1) % n, "hl")) for i in range(n)]
    return Plan(QUAD_LABELS, deltas, upkeep, builds, (SUM,) * n)


compiled(_plan, 3)


class RefinedTriangleEngine(LWEngine):
    """Triangle count over four-way partitioned relations."""

    REL = REL_NAMES
    PLAN = staticmethod(_plan)
    DEGREE = 3

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(self.DEGREE, eps, counters)
