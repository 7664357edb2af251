"""Full triangle enumeration with constant delay after each update.

Maintains the ternary query ``Q(a,b,c) = R(a,b) * S(b,c) * T(c,a)`` so that
all result tuples can be streamed with constant delay at any point. The
eight part combinations split into:

  * all-heavy and all-light, kept in one listing-form dict keyed (a,b,c);
  * three factorized families, one per rotation. Family i covers the
    combinations "relation i heavy, relation i+1 light, relation i+2
    either". Its wedge ``tri[i]`` is the join of the heavy part of
    relation i with the light part of relation i+1, in rotated order
    (x, y, z) with y the middle variable, grouped by the outer pair:
    ``tri[i][x, z]`` maps each middle value y to its multiplicity.

Enumeration concatenates the listing with, per family, the live (x, z)
pairs joined back against their middle values and their third factor.
Ownership is unique because the part domains are disjoint, so no
deduplication structure is needed.

Signed multiplicities make a summed aggregate per pair unreliable as a
liveness signal: opposite-sign middle values can cancel its sum while the
factorized result is nonempty. Liveness therefore tracks support, not
sums: a pair is born with its first middle value, when its third factor
is probed in both parts, and dies with its last; one set per family holds
the live pairs whose third factor is stored. A tuple sits in one part and
a move is a delete followed by an insert, so the set stays exact while
keys are in transit.

The update step adds into the family maps inside its two walks and keeps
``tri_size``, the number of family entries, for an O(1) ``space_used``.
Routing and rebalancing come from the shared kernel, which moves each
tuple that changes part through ``apply_update``. The engine keeps no
count, so it supplies no ``delta``. ``recompute_views`` builds the
structures from the parts, for the kernel's loader.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import HEAVY, IDX0, IDX1, LIGHT, Partition, bump

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

    def __init__(self, eps: float | tuple = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (2, 2, 2), eps, counters)
        self.parts = [Partition(2) for _ in range(3)]
        self.listing: dict[tuple, int] = {}
        self.tri: list[dict] = [{}, {}, {}]  # (x, z) -> {y: mult}
        self.tri_size = 0                    # family entries, (x, y, z) triples
        self.live: list[set] = [set(), set(), set()]  # live (x, z) pairs per family

    def answer(self) -> int:
        """Number of distinct result tuples currently enumerable."""
        return sum(1 for _ in self.enumerate())

    def space_used(self) -> int:
        return sum(p.total_size() for p in self.parts) + len(self.listing) + self.tri_size

    # -- update procedure ---------------------------------------------------

    def apply_update(self, i: int, side: str, t: tuple, m: int) -> int:
        """Apply a routed delta to the listing views; returns the stored multiplicity."""
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
                row = nxt.heavy.indexes[IDX0].get(y)
                if row:
                    for z, mu in posts.items():
                        ms = row.get(z)
                        if ms:
                            bump(self.listing, _rotate_back(i, x, y, z), m * ms * mu)
            # family i: heavy side of this relation joins i+1's light part
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                fam = self.tri[i]
                live = self.live[i]
                sh = snd.heavy.indexes[IDX0]
                sl = snd.light.indexes[IDX0]
                grown = 0
                for z, mu in posts.items():
                    pk = (x, z)
                    ys = fam.get(pk)
                    if ys is None:
                        fam[pk] = {y: m * mu}
                        grown += 1
                        if x in sh.get(z, ()) or x in sl.get(z, ()):
                            live.add(pk)
                        continue
                    old = ys.get(y, 0)
                    if old + m * mu:
                        ys[y] = old + m * mu
                        if not old:
                            grown += 1
                    else:
                        del ys[y]
                        grown -= 1
                        if not ys:
                            del fam[pk]
                            live.discard(pk)
                self.tri_size += grown
        else:
            # all-light listing entries
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                sl = snd.light.indexes[IDX0]
                for z, mu in posts.items():
                    z_row = sl.get(z)
                    if z_row:
                        mt = z_row.get(x)
                        if mt:
                            bump(self.listing, _rotate_back(i, x, y, z), m * mu * mt)
            # family i+2: its heavy anchor (w, x) joins this relation's light part
            posts = snd.heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                fam = self.tri[i2]
                live = self.live[i2]
                nh = nxt.heavy.indexes[IDX0].get(y, ())
                nl = nxt.light.indexes[IDX0].get(y, ())
                grown = 0
                for w, mu in posts.items():
                    pk = (w, y)
                    ys = fam.get(pk)
                    if ys is None:
                        fam[pk] = {x: m * mu}
                        grown += 1
                        if w in nh or w in nl:
                            live.add(pk)
                        continue
                    old = ys.get(x, 0)
                    if old + m * mu:
                        ys[x] = old + m * mu
                        if not old:
                            grown += 1
                    else:
                        del ys[x]
                        grown -= 1
                        if not ys:
                            del fam[pk]
                            live.discard(pk)
                self.tri_size += grown

        new = self.parts[i].parts[side].upsert(t, m)
        # liveness of family i+1 pairs keyed (y, x) follows this entry:
        # this relation is their third factor, and a tuple sits in one part
        rk = (y, x)
        if new == m:
            if rk in self.tri[i1]:
                self.live[i1].add(rk)
        elif new == 0:
            self.live[i1].discard(rk)
        return new

    def rebuild_views(self) -> None:
        self.listing, self.tri, self.live, self.tri_size = self.recompute_views()

    def recompute_views(self):
        """All view structures and the family entry count, recomputed from the parts."""
        c = self.counters
        listing: dict = {}
        for lab in (HEAVY, LIGHT):
            r_idx = self.parts[0].parts[lab].indexes[IDX0]
            s_idx = self.parts[1].parts[lab].indexes[IDX0]
            t2 = self.parts[2].parts[lab]
            for a, row in r_idx.items():
                for b, mr in row.items():
                    posts = s_idx.get(b)
                    if posts:
                        c.iterations += len(posts)
                        for cv, ms in posts.items():
                            mt = t2.get((cv, a))
                            if mt:
                                bump(listing, (a, b, cv), mr * ms * mt)
        tri: list[dict] = [{}, {}, {}]
        live: list[set] = [set(), set(), set()]
        size = 0
        for i in range(3):
            i1 = i - 2 if i >= 2 else i + 1
            i2 = i - 1 if i >= 1 else i + 2
            # each (x, y, z) pairs one heavy tuple with one light tuple
            fam = tri[i]
            h_idx = self.parts[i].heavy.indexes[IDX1]
            l_idx = self.parts[i1].light.indexes[IDX0]
            for y in h_idx.keys() & l_idx.keys():
                h_posts = h_idx[y]
                l_posts = l_idx[y]
                c.iterations += len(h_posts) * len(l_posts)
                size += len(h_posts) * len(l_posts)
                for x, mh in h_posts.items():
                    for z, ml in l_posts.items():
                        fam.setdefault((x, z), {})[y] = mh * ml
            sh, sl = self.parts[i2].heavy.indexes[IDX0], self.parts[i2].light.indexes[IDX0]
            live[i] = {(x, z) for x, z in fam if x in sh.get(z, ()) or x in sl.get(z, ())}
        return listing, tri, live, size

    # -- enumeration ----------------------------------------------------------

    def enumerate(self):
        """Each distinct (a, b, c) exactly once with its total multiplicity."""
        for key, m in self.listing.items():
            yield key, m
        for i in range(3):
            i2 = i - 1 if i >= 1 else i + 2
            fam = self.tri[i]
            sh, sl = self.parts[i2].heavy.indexes[IDX0], self.parts[i2].light.indexes[IDX0]
            for pk in self.live[i]:
                x, z = pk
                f = sh[z][x] if x in sh.get(z, ()) else sl[z][x]
                for y, my in fam[pk].items():
                    yield _rotate_back(i, x, y, z), my * f

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
            fam = self.tri[i]
            sh, sl = self.parts[i2].heavy.indexes[IDX0], self.parts[i2].light.indexes[IDX0]
            steps += 1
            for pk in self.live[i]:
                x, z = pk
                steps += 2
                f = sh[z][x] if x in sh.get(z, ()) else sl[z][x]
                for y, my in fam[pk].items():
                    steps += 2
                    yield _rotate_back(i, x, y, z), my * f, steps
                    steps = 0

    def result_multiset(self) -> dict[tuple, int]:
        out: dict = {}
        for key, m in self.enumerate():
            if key in out:
                raise AssertionError(f"duplicate result tuple {key}")
            out[key] = m
        return out


def preprocess_enum(db: dict, eps: float | tuple = 0.5,
                    counters: OpCounters | None = None) -> EnumTriangleEngine:
    """Ready enumeration state from a full database."""
    return EnumTriangleEngine.preprocess(db, eps, counters)
