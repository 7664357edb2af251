"""Triangle counting over a single self-joined edge relation.

Maintains ``q = sum_{a,b,c} R(a,b) * R(b,c) * R(c,a)`` under single-tuple
updates to R. Algebraically the delta of the triple self-join collapses to
three times the one-relation analogue of the triangle delta, plus two
diagonal correction terms that are only active for loop edges (a, a): a
quadratic term against the stored loop multiplicity and a cubic term from
the update alone. Multiplicities beyond +-1 are honored, so the quadratic
term uses m squared and the cubic term m cubed.

One partition (on the source endpoint) and a single wedge view, the
aggregated join of the heavy part with the light part, replace the three
views of the three-relation engine. The wedge is built by the triangle
engine's builder, and routing and rebalancing come from the shared kernel.
The delta of relation 0 reads relation 0 itself, so unlike the other
engines this one computes its loaded count from the query's definition.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, Partition, bump
from .triangle import TriangleEngine, build_wedge


class SelfJoinEngine(MaintenanceKernel):
    """Self-join triangle count under single-tuple edge updates."""

    REL = ("R",)

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(self.REL, (2,), eps, counters)
        self.parts = [Partition(2)]
        # wedge[(a, c)] = sum_b heavy(a, b) * light(b, c)
        self.wedge: dict = {}

    def space_used(self) -> int:
        return self.parts[0].total_size() + len(self.wedge)

    def delta(self, i: int, t: tuple, m: int) -> int:
        """Change of the count for the delta ``m`` of edge ``t``."""
        dq = 3 * m * self._one_hop(t)
        if t[0] == t[1]:
            self.counters.lookups += 2
            dq += 3 * m * m * self.parts[0].multiplicity(t)
            dq += m * m * m
        return dq

    def _one_hop(self, t: tuple) -> int:
        """``sum_z R(b, z) * R(z, a)`` for the edge ``t = (a, b)``, split by part."""
        a, b = t
        c = self.counters
        part = self.parts[0]
        h_rows = part.heavy.indexes[IDX0]
        l_rows = part.light.indexes[IDX0]
        h_col = part.heavy.indexes[IDX1].get(a)
        l_row = l_rows.get(b)
        acc = 0

        # both heavy: scan heavy edges into a, they have distinct sources
        if h_col:
            c.iterations += len(h_col)
            row = h_rows.get(b)
            if row:
                for u, mu in h_col.items():
                    ms = row.get((b, u[0]))
                    if ms:
                        acc += ms * mu

        # heavy then light: wedge lookup
        c.lookups += 1
        acc += self.wedge.get((b, a), 0)

        if self.eps <= 0.5:
            # light then either side in one walk; a minor rebalance may be
            # moving z, so z can key both sides and both are probed
            if l_row:
                c.iterations += len(l_row)
                for u, mu in l_row.items():
                    z = u[1]
                    e = (z, a)
                    row = h_rows.get(z)
                    mt = row.get(e, 0) if row else 0
                    row = l_rows.get(z)
                    if row:
                        mt += row.get(e, 0)
                    if mt:
                        acc += mu * mt
        else:
            # light then heavy: the heavy column at a is shorter
            if h_col:
                c.iterations += len(h_col)
                if l_row:
                    for u, mu in h_col.items():
                        ms = l_row.get((b, u[0]))
                        if ms:
                            acc += ms * mu
            # both light
            if l_row:
                c.iterations += len(l_row)
                for u, mu in l_row.items():
                    z = u[1]
                    row = l_rows.get(z)
                    if row:
                        mt = row.get((z, a))
                        if mt:
                            acc += mu * mt
        return acc

    def apply_update(self, i: int, side: str, t: tuple, m: int) -> int:
        """Apply a routed edge delta; returns the stored multiplicity."""
        a, b = t
        c = self.counters
        part = self.parts[0]
        if side == HEAVY:
            l_row = part.light.indexes[IDX0].get(b)
            if l_row:
                c.iterations += len(l_row)
                for u, mu in l_row.items():
                    bump(self.wedge, (a, u[1]), m * mu)
        else:
            h_col = part.heavy.indexes[IDX1].get(a)
            if h_col:
                c.iterations += len(h_col)
                for u, mu in h_col.items():
                    bump(self.wedge, (u[0], b), m * mu)
        return part.side(side).upsert(t, m)

    def rebuild_views(self) -> None:
        part = self.parts[0]
        self.wedge = build_wedge(part.heavy, part.light, self.counters)

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
        return sum(m * self._one_hop(t) for t, m in rows.items())


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
