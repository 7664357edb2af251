"""Triangle counting over a single self-joined edge relation.

Maintains ``q = sum_{a,b,c} R(a,b) * R(b,c) * R(c,a)`` under single-tuple
updates to R. Algebraically the delta of the triple self-join collapses to
three times the triangle delta with R = S = T, plus two diagonal
correction terms that are only active for loop edges (a, a): a quadratic
term against the stored loop multiplicity and a cubic term from the update
alone. Multiplicities beyond +-1 are honored, so the quadratic term uses m
squared and the cubic term m cubed.

So the engine is the triangle engine over one partition (on the source
endpoint): that partition stands in for all three relations of the
triangle engine's ``ring``, and one wedge view, the aggregated join of its
heavy part with its light part, fills all three wedge slots. The triangle
engine's delta, update step and wedge builder run on them unchanged, and
routing and rebalancing come from the shared kernel. The delta of
relation 0 reads relation 0 itself, so unlike the other engines this one
computes its loaded count from the query's definition.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import Partition
from .triangle import TriangleEngine, build_wedge


class SelfJoinEngine(TriangleEngine):
    """Self-join triangle count under single-tuple edge updates."""

    REL = ("R",)
    PER_RELATION_EPS = False

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        MaintenanceKernel.__init__(self, self.REL, (2,), eps, counters)
        part = Partition(2)
        self.parts = [part]
        self.ring = (part, part, part)
        # wedges[i][(a, c)] = sum_b heavy(a, b) * light(b, c), one dict for all i
        wedge: dict = {}
        self.wedges = [wedge, wedge, wedge]

    def space_used(self) -> int:
        return self.parts[0].total_size() + len(self.wedges[0])

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Change of the count for the delta ``m`` of edge ``t``."""
        dq = 3 * TriangleEngine.delta(self, 0, t, m)
        if t[0] == t[1]:
            self.counters.lookups += 2
            dq += 3 * m * m * self.parts[0].multiplicity(t)
            dq += m * m * m
        return dq

    def rebuild_views(self) -> None:
        part = self.parts[0]
        wedge = build_wedge(part.heavy, part.light, self.counters)
        self.wedges = [wedge, wedge, wedge]

    @classmethod
    def preprocess(cls, edges: dict, eps: float = 0.5,
                   counters: OpCounters | None = None) -> "SelfJoinEngine":
        """Ready state from a full edge relation ``{edge: multiplicity}``."""
        return super().preprocess([edges], eps, counters)

    def loaded_count(self, rows: dict) -> int:
        """The count after ``preprocess``: each edge's multiplicity times its one-hop sum.

        ``q = sum_{a,b} R(a, b) * sum_c R(b, c) * R(c, a)`` is the query's
        definition, loops included, so no correction term enters.
        """
        return sum(TriangleEngine.delta(self, 0, t, m) for t, m in rows.items())


class ThreeCopiesEngine:
    """Self-join count via three synchronized copies in the base engine.

    Every edge update is replayed into all three relations of a
    ``TriangleEngine``; after the third replay the copies agree and the
    count equals the self-join count. A cross-check for the test suite,
    which imports it from here; it is not exported at the package root.
    """

    def __init__(self, cfg=0.5):
        self.inner = TriangleEngine(cfg)

    def on_update(self, rel, t, m):
        for name in ("R", "S", "T"):
            self.inner.on_update(name, t, m)

    def answer(self) -> int:
        return self.inner.answer()
