"""Full triangle enumeration with constant delay after each update.

Maintains the ternary query ``Q(a,b,c) = R(a,b) * S(b,c) * T(c,a)`` so that
all result tuples can be streamed with constant delay at any point. The
eight part combinations split into:

  * all-heavy and all-light, kept in one listing-form dict keyed (a,b,c);
  * three factorized families, one per rotation. Family i covers the
    combinations "relation i heavy, relation i+1 light, relation i+2
    either": a ternary wedge ``tri[i]`` holds the join of the heavy part
    of relation i with the light part of relation i+1 (keyed in rotated
    order (x, y, z) with y the middle variable), ``pair[i]`` aggregates
    away the middle variable, and two root views multiply the aggregate
    with each part of relation i+2.

Enumeration concatenates the listing with, per family and per third-part
side, the live (x, z) pairs joined back against the middle values of
``tri[i]``. Ownership is unique because the part domains are disjoint, so
no deduplication structure is needed.

Signed multiplicities make the aggregate pair view unreliable as a
liveness signal: opposite-sign middle values can cancel its sum while the
factorized result is nonempty. Liveness therefore tracks support, not
sums: a per-family index of middle values per (x, z) pair, plus per-side
sets of pairs whose third-part factor is present. The root views with the
summed values are still maintained (they are part of the state contract
and serve the consistency checks); only enumeration liveness bypasses
them.

Rebalancing comes from the shared kernel; its major rebalance rebuilds all
of the structures above through ``recompute_views``.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, LIGHT, Partition, bump, strict_partition

REL_NAMES = ("R", "S", "T")


def _rotate_back(i: int, x, y, z) -> tuple:
    # family tuples are stored in rotated order; map back to (a, b, c)
    if i == 0:
        return (x, y, z)
    if i == 1:
        return (z, x, y)
    return (y, z, x)


class EnumTriangleEngine(MaintenanceKernel):
    """Distinct result tuples with multiplicities, constant-delay stream."""

    REL = REL_NAMES

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (2, 2, 2), eps, counters)
        self.parts = [Partition(2, IDX0, 1.0) for _ in range(3)]
        self.listing: dict[tuple, int] = {}
        self.tri: list[dict] = [{}, {}, {}]          # (x, y, z) -> mult
        self.pair_index: list[dict] = [{}, {}, {}]   # (x, z) -> set of y
        self.pair_sum: list[dict] = [{}, {}, {}]     # (x, z) -> summed mult
        self.roots = [{HEAVY: {}, LIGHT: {}} for _ in range(3)]
        self.live = [{HEAVY: set(), LIGHT: set()} for _ in range(3)]

    def answer(self) -> int:
        """Number of distinct result tuples currently enumerable."""
        return sum(1 for _ in self.enumerate())

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + len(self.listing)
                + sum(len(d) for d in self.tri)
                + sum(len(d) for d in self.pair_sum)
                + sum(len(side) for fam in self.roots for side in fam.values()))

    # -- tree maintenance ---------------------------------------------------

    def _tri_bump(self, i: int, x, y, z, d: int) -> None:
        """Delta one ternary wedge entry, cascading into pair structures."""
        tri = self.tri[i]
        key = (x, y, z)
        old = tri.get(key, 0)
        new = old + d
        pk = (x, z)
        if new:
            tri[key] = new
            if old == 0:
                ys = self.pair_index[i].get(pk)
                if ys is None:
                    self.pair_index[i][pk] = {y}
                    self._pair_born(i, pk)
                else:
                    ys.add(y)
        else:
            del tri[key]
            ys = self.pair_index[i][pk]
            ys.discard(y)
            if not ys:
                del self.pair_index[i][pk]
                self._pair_died(i, pk)
        bump(self.pair_sum[i], pk, d)
        # roots multiply the aggregate with each side of relation i+2
        i2 = i - 1 if i >= 1 else i + 2
        rk = (z, x)
        third = self.parts[i2]
        f = third.heavy.entries.get(rk)
        if f:
            bump(self.roots[i][HEAVY], pk, d * f)
        f = third.light.entries.get(rk)
        if f:
            bump(self.roots[i][LIGHT], pk, d * f)

    def _pair_born(self, i: int, pk) -> None:
        x, z = pk
        third = self.parts[i - 1 if i >= 1 else i + 2]
        if (z, x) in third.heavy.entries:
            self.live[i][HEAVY].add(pk)
        if (z, x) in third.light.entries:
            self.live[i][LIGHT].add(pk)

    def _pair_died(self, i: int, pk) -> None:
        self.live[i][HEAVY].discard(pk)
        self.live[i][LIGHT].discard(pk)

    # -- update procedure ---------------------------------------------------

    def apply_update(self, rel, side: str, t: tuple, m: int) -> None:
        i = self._index[rel]
        x, y = t
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        nxt = self.parts[i1]
        snd = self.parts[i2]

        if side == HEAVY:
            # all-heavy listing entries
            posts = snd.heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                ne = nxt.heavy.entries
                se = snd.heavy.entries
                for u in posts:
                    z = u[0]
                    ms = ne.get((y, z))
                    if ms:
                        bump(self.listing, _rotate_back(i, x, y, z), m * ms * se[u])
            # family i: heavy side of this relation joins i+1's light part
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                le = nxt.light.entries
                for u in list(posts):
                    self._tri_bump(i, x, y, u[1], m * le[u])
        else:
            # all-light listing entries
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                le = nxt.light.entries
                se = snd.light.entries
                for u in posts:
                    z = u[1]
                    mt = se.get((z, x))
                    if mt:
                        bump(self.listing, _rotate_back(i, x, y, z), m * le[u] * mt)
            # family i+2: its heavy anchor joins this relation's light part
            posts = snd.heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                he = snd.heavy.entries
                for u in list(posts):
                    self._tri_bump(i2, u[0], x, y, m * he[u])

        # family i+1's root: this relation is its third factor
        rk = (y, x)
        c.lookups += 1
        agg = self.pair_sum[i1].get(rk, 0)
        if agg:
            bump(self.roots[i1][side], rk, m * agg)

        new = self.parts[i].side(side).upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)
        # liveness of family i+1 pairs keyed (y, x) follows this entry
        if new == m:
            if rk in self.pair_index[i1]:
                self.live[i1][side].add(rk)
        elif new == 0:
            self.live[i1][side].discard(rk)

    def route(self, i: int, t: tuple) -> str:
        self.counters.lookups += 1
        return self.parts[i].route(t[0], self.eps == 0.0)

    def rebuild_views(self) -> None:
        (self.listing, self.tri, self.pair_index, self.pair_sum,
         self.roots, self.live) = self.recompute_views()

    def recompute_views(self):
        """All view structures recomputed from the relation parts."""
        c = self.counters
        listing: dict = {}
        for lab in (HEAVY, LIGHT):
            r0 = self.parts[0].side(lab)
            s1 = self.parts[1].side(lab)
            t2 = self.parts[2].side(lab)
            s_idx = s1.indexes[IDX0]
            for t, mr in r0.entries.items():
                posts = s_idx.get(t[1])
                if posts:
                    c.iterations += len(posts)
                    for u in posts:
                        mt = t2.entries.get((u[1], t[0]))
                        if mt:
                            bump(listing, (t[0], t[1], u[1]), mr * s1.entries[u] * mt)
        tri: list[dict] = [{}, {}, {}]
        pair_index: list[dict] = [{}, {}, {}]
        pair_sum: list[dict] = [{}, {}, {}]
        roots = [{HEAVY: {}, LIGHT: {}} for _ in range(3)]
        live = [{HEAVY: set(), LIGHT: set()} for _ in range(3)]
        for i in range(3):
            i1 = i - 2 if i >= 2 else i + 1
            i2 = i - 1 if i >= 1 else i + 2
            h = self.parts[i].heavy
            l = self.parts[i1].light
            l_idx = l.indexes[IDX0]
            for t, mh in h.entries.items():
                posts = l_idx.get(t[1])
                if posts:
                    c.iterations += len(posts)
                    for u in posts:
                        d = mh * l.entries[u]
                        key = (t[0], t[1], u[1])
                        nv = tri[i].get(key, 0) + d
                        if nv:
                            tri[i][key] = nv
                        else:
                            del tri[i][key]
                        bump(pair_sum[i], (t[0], u[1]), d)
            for (x, y, z) in tri[i]:
                pair_index[i].setdefault((x, z), set()).add(y)
            third = self.parts[i2]
            for pk in pair_index[i]:
                x, z = pk
                for lab in (HEAVY, LIGHT):
                    f = third.side(lab).entries.get((z, x))
                    if f:
                        live[i][lab].add(pk)
                        agg = pair_sum[i].get(pk, 0)
                        if agg:
                            roots[i][lab][pk] = agg * f
        return listing, tri, pair_index, pair_sum, roots, live

    # -- enumeration ----------------------------------------------------------

    def enumerate(self):
        """Each distinct (a, b, c) exactly once with its total multiplicity."""
        for key, m in self.listing.items():
            yield key, m
        for i in range(3):
            i2 = i - 1 if i >= 1 else i + 2
            tri = self.tri[i]
            pairs = self.pair_index[i]
            for lab in (HEAVY, LIGHT):
                factor = self.parts[i2].side(lab).entries
                for pk in self.live[i][lab]:
                    x, z = pk
                    f = factor[(z, x)]
                    for y in pairs[pk]:
                        yield _rotate_back(i, x, y, z), tri[(x, y, z)] * f

    def enumerate_with_delays(self):
        """Like ``enumerate`` but reports primitive steps between yields.

        Steps count container advances (one per listing item, live pair,
        and middle value) plus the constant factor lookups per pair.
        """
        steps = 0
        for key, m in self.listing.items():
            steps += 1
            yield key, m, steps
            steps = 0
        for i in range(3):
            i2 = i - 1 if i >= 1 else i + 2
            tri = self.tri[i]
            pairs = self.pair_index[i]
            for lab in (HEAVY, LIGHT):
                factor = self.parts[i2].side(lab).entries
                steps += 1
                for pk in self.live[i][lab]:
                    x, z = pk
                    steps += 2
                    f = factor[(z, x)]
                    for y in pairs[pk]:
                        steps += 2
                        yield _rotate_back(i, x, y, z), tri[(x, y, z)] * f, steps
                        steps = 0

    def result_multiset(self) -> dict[tuple, int]:
        out: dict = {}
        for key, m in self.enumerate():
            if key in out:
                raise AssertionError(f"duplicate result tuple {key}")
            out[key] = m
        return out


def preprocess_enum(db: dict, eps: float = 0.5,
                    counters: OpCounters | None = None) -> EnumTriangleEngine:
    """Ready enumeration state from a full database."""
    eng = EnumTriangleEngine(eps, counters)
    staged = eng._load(db)
    theta = eng._theta()
    eng.parts = [strict_partition(r, IDX0, theta) for r in staged]
    eng.rebuild_views()
    return eng
