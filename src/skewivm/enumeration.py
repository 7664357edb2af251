"""Full triangle enumeration with constant delay after each update.

Maintains the ternary query ``Q(a,b,c) = R(a,b) * S(b,c) * T(c,a)`` so that
all result tuples can be streamed with constant delay at any point. The
eight part combinations split into:

  * all-heavy and all-light, kept in one listing-form dict keyed (a,b,c);
  * three factorized families, one per rotation. Family i covers the
    combinations "relation i heavy, relation i+1 light, relation i+2
    either": a ternary wedge ``tri[i]`` holds the join of the heavy part
    of relation i with the light part of relation i+1 (keyed in rotated
    order (x, y, z) with y the middle variable), and ``pair_index[i]``
    groups its middle values by the outer pair (x, z).

Enumeration concatenates the listing with, per family and per third-part
side, the live (x, z) pairs joined back against the middle values of
``tri[i]``. Ownership is unique because the part domains are disjoint, so
no deduplication structure is needed.

Signed multiplicities make a summed aggregate per pair unreliable as a
liveness signal: opposite-sign middle values can cancel its sum while the
factorized result is nonempty. Liveness therefore tracks support, not
sums: the middle values per (x, z) pair, plus per-side sets of pairs
whose third-part factor is present.

Routing and rebalancing come from the shared kernel, which moves each
tuple that changes part through ``apply_update``, so the structures above
follow every move. The engine keeps no count, so it supplies no
``delta``. ``recompute_views`` builds the structures from the parts, for
the kernel's loader.
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

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (2, 2, 2), eps, counters)
        self.parts = [Partition(2) for _ in range(3)]
        self.listing: dict[tuple, int] = {}
        self.tri: list[dict] = [{}, {}, {}]          # (x, y, z) -> mult
        self.pair_index: list[dict] = [{}, {}, {}]   # (x, z) -> set of y
        self.live = [{HEAVY: set(), LIGHT: set()} for _ in range(3)]

    def answer(self) -> int:
        """Number of distinct result tuples currently enumerable."""
        return sum(1 for _ in self.enumerate())

    def space_used(self) -> int:
        return (sum(p.total_size() for p in self.parts)
                + len(self.listing)
                + sum(len(d) for d in self.tri))

    # -- tree maintenance ---------------------------------------------------

    def _tri_bump(self, i: int, x, y, z, d: int, third_h, third_l) -> None:
        """Delta one ternary wedge entry, cascading into pair structures.

        ``third_h`` and ``third_l`` are the posting maps at ``z`` of the
        heavy and light parts of relation i+2 (``None`` when absent); a
        new pair is live on each side that holds its third factor.
        """
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
                    self._pair_born(i, pk, third_h, third_l)
                else:
                    ys.add(y)
        else:
            del tri[key]
            ys = self.pair_index[i][pk]
            ys.discard(y)
            if not ys:
                del self.pair_index[i][pk]
                self._pair_died(i, pk)

    def _pair_born(self, i: int, pk, third_h, third_l) -> None:
        rk = (pk[1], pk[0])
        if third_h and rk in third_h:
            self.live[i][HEAVY].add(pk)
        if third_l and rk in third_l:
            self.live[i][LIGHT].add(pk)

    def _pair_died(self, i: int, pk) -> None:
        self.live[i][HEAVY].discard(pk)
        self.live[i][LIGHT].discard(pk)

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
                    for u, mu in posts.items():
                        z = u[0]
                        ms = row.get((y, z))
                        if ms:
                            bump(self.listing, _rotate_back(i, x, y, z), m * ms * mu)
            # family i: heavy side of this relation joins i+1's light part
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                sh = snd.heavy.indexes[IDX0]
                sl = snd.light.indexes[IDX0]
                for u, mu in posts.items():
                    z = u[1]
                    self._tri_bump(i, x, y, z, m * mu, sh.get(z), sl.get(z))
        else:
            # all-light listing entries
            posts = nxt.light.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                sl = snd.light.indexes[IDX0]
                for u, mu in posts.items():
                    z = u[1]
                    z_row = sl.get(z)
                    if z_row:
                        mt = z_row.get((z, x))
                        if mt:
                            bump(self.listing, _rotate_back(i, x, y, z), m * mu * mt)
            # family i+2: its heavy anchor joins this relation's light part
            posts = snd.heavy.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                nh = nxt.heavy.indexes[IDX0].get(y)
                nl = nxt.light.indexes[IDX0].get(y)
                for u, mu in posts.items():
                    self._tri_bump(i2, u[0], x, y, m * mu, nh, nl)

        new = self.parts[i].side(side).upsert(t, m)
        # liveness of family i+1 pairs keyed (y, x) follows this entry:
        # this relation is their third factor
        rk = (y, x)
        if new == m:
            if rk in self.pair_index[i1]:
                self.live[i1][side].add(rk)
        elif new == 0:
            self.live[i1][side].discard(rk)
        return new

    def rebuild_views(self) -> None:
        self.listing, self.tri, self.pair_index, self.live = self.recompute_views()

    def recompute_views(self):
        """All view structures recomputed from the relation parts."""
        c = self.counters
        listing: dict = {}
        for lab in (HEAVY, LIGHT):
            r0 = self.parts[0].side(lab)
            s_idx = self.parts[1].side(lab).indexes[IDX0]
            t2 = self.parts[2].side(lab)
            for t, mr in r0.items():
                posts = s_idx.get(t[1])
                if posts:
                    c.iterations += len(posts)
                    for u, ms in posts.items():
                        mt = t2.get((u[1], t[0]))
                        if mt:
                            bump(listing, (t[0], t[1], u[1]), mr * ms * mt)
        tri: list[dict] = [{}, {}, {}]
        pair_index: list[dict] = [{}, {}, {}]
        live = [{HEAVY: set(), LIGHT: set()} for _ in range(3)]
        for i in range(3):
            i1 = i - 2 if i >= 2 else i + 1
            i2 = i - 1 if i >= 1 else i + 2
            # each (x, y, z) pairs one heavy tuple with one light tuple
            h_idx = self.parts[i].heavy.indexes[IDX1]
            l_idx = self.parts[i1].light.indexes[IDX0]
            for y in h_idx.keys() & l_idx.keys():
                h_posts = h_idx[y]
                l_posts = l_idx[y]
                c.iterations += len(h_posts) * len(l_posts)
                for t, mh in h_posts.items():
                    x = t[0]
                    for u, ml in l_posts.items():
                        z = u[1]
                        tri[i][(x, y, z)] = mh * ml
                        pair_index[i].setdefault((x, z), set()).add(y)
            third = self.parts[i2]
            for pk in pair_index[i]:
                x, z = pk
                for lab in (HEAVY, LIGHT):
                    if third.side(lab).get((z, x)):
                        live[i][lab].add(pk)
        return listing, tri, pair_index, live

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
                factor = self.parts[i2].side(lab).indexes[IDX0]
                for pk in self.live[i][lab]:
                    x, z = pk
                    f = factor[z][(z, x)]
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
                factor = self.parts[i2].side(lab).indexes[IDX0]
                steps += 1
                for pk in self.live[i][lab]:
                    x, z = pk
                    steps += 2
                    f = factor[z][(z, x)]
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
    return EnumTriangleEngine.preprocess(db, eps, counters)
