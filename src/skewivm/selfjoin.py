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
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, Partition, bump, strict_partition
from .triangle import TriangleEngine, build_wedge


class SelfJoinEngine(MaintenanceKernel):
    """Self-join triangle count under single-tuple edge updates."""

    REL = ("R",)

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(self.REL, (2,), eps, counters)
        self.parts = [Partition(2, IDX0, 1.0)]
        # wedge[(a, c)] = sum_b heavy(a, b) * light(b, c)
        self.wedge: dict = {}

    def space_used(self) -> int:
        return self.parts[0].total_size() + len(self.wedge)

    def apply_update(self, rel, side: str, t: tuple, m: int) -> int:
        """Apply a routed edge delta; returns the count change."""
        a, b = t
        c = self.counters
        part = self.parts[0]
        heavy = part.heavy
        light = part.light
        acc = 0

        # both heavy: scan heavy edges into a, they have distinct sources
        posts = heavy.indexes[IDX1].get(a)
        if posts:
            c.iterations += len(posts)
            he = heavy.entries
            for u in posts:
                ms = he.get((b, u[0]))
                if ms:
                    acc += ms * he[u]

        # heavy then light: wedge lookup
        c.lookups += 1
        acc += self.wedge.get((b, a), 0)

        # light then heavy: smaller side by the tuning exponent
        if self.eps <= 0.5:
            posts = light.indexes[IDX0].get(b)
            if posts:
                c.iterations += len(posts)
                le = light.entries
                he = heavy.entries
                for u in posts:
                    mt = he.get((u[1], a))
                    if mt:
                        acc += le[u] * mt
        else:
            posts = heavy.indexes[IDX1].get(a)
            if posts:
                c.iterations += len(posts)
                le = light.entries
                he = heavy.entries
                for u in posts:
                    ms = le.get((b, u[0]))
                    if ms:
                        acc += ms * he[u]

        # both light
        posts = light.indexes[IDX0].get(b)
        if posts:
            c.iterations += len(posts)
            le = light.entries
            for u in posts:
                mt = le.get((u[1], a))
                if mt:
                    acc += le[u] * mt

        dq = 3 * m * acc
        if a == b:
            c.lookups += 2
            loop = heavy.entries.get(t, 0) + light.entries.get(t, 0)
            dq += 3 * m * m * loop
            dq += m * m * m
        self.q += dq

        if side == HEAVY:
            posts = light.indexes[IDX0].get(b)
            if posts:
                c.iterations += len(posts)
                le = light.entries
                for u in posts:
                    bump(self.wedge, (a, u[1]), m * le[u])
        else:
            posts = heavy.indexes[IDX1].get(a)
            if posts:
                c.iterations += len(posts)
                he = heavy.entries
                for u in posts:
                    bump(self.wedge, (u[0], b), m * he[u])

        new = part.side(side).upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)
        return dq

    def route(self, i: int, t: tuple) -> str:
        self.counters.lookups += 1
        return self.parts[0].route(t[0], self.eps == 0.0)

    def rebuild_views(self) -> None:
        self.wedge = self._build_wedge()

    def _build_wedge(self) -> dict:
        part = self.parts[0]
        return build_wedge(part.heavy, part.light, self._theta(),
                           self.N ** (1.0 - self.eps), self.counters)

    @classmethod
    def preprocess(cls, edges: dict, eps: float = 0.5,
                   counters: OpCounters | None = None) -> "SelfJoinEngine":
        """Build a ready state from a full edge relation.

        The count is not linear in the self-joined relation, so it is
        obtained by replaying the edges through the update procedure into
        pre-classified parts (no rebalancing needed: parts already strict).
        """
        eng = cls(eps, counters)
        rel, = eng._load([edges])
        eng.db_size = 0  # the replay below counts every edge in again
        theta = eng._theta()
        staged = strict_partition(rel, IDX0, theta)
        eng.parts = [Partition(2, IDX0, theta)]
        for lab, side in staged.sides():
            for t, m in side.entries.items():
                eng.apply_update(0, lab, t, m)
        return eng

    def recompute_wedge(self) -> dict:
        return self._uncounted(self._build_wedge)


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
