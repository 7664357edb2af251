"""Triangle counting with two-variable relation partitions.

Same query and same update-time budget as the base engine, but every
relation is split on the degrees of both of its variables, giving four
parts (hh, hl, lh, ll). The payoff is space: each wedge view now joins a
part that is heavy on the exported variable with one that is heavy on the
other exported variable, so its size is capped both by "entries times
light budget" and by "heavy keys squared", which is linear at the balanced
exponent 1/2.

Update deltas split into sixteen part combinations per neighbor pair;
blocks sharing a scan are evaluated together:

  * next heavy on the join variable and second heavy on its own key:
    scan the second neighbor's heavy-keyed parts at the update's shared
    value, probing both next-relation candidates;
  * next heavy-heavy against second light: scan the next relation's
    heavy-heavy part (few distinct second values), probing the light part;
  * next heavy-light against second light-light: scan the second's
    light-light entries at the shared value;
  * next heavy-light against second light-heavy: the wedge lookup;
  * next light against second heavy: smaller side by the tuning exponent;
  * next light against second light: scan the next side.

Wedge maintenance only fires for updates landing in an hl part (own wedge)
or an lh part (preceding wedge). Minor rebalancing (``QuadPartition``'s
check, run by the shared kernel) looks at both variables of the updated
tuple and can fire twice for one update.
"""

from __future__ import annotations

from .kernel import MaintenanceKernel
from .metrics import OpCounters
from .relation import IDX0, IDX1, QuadPartition, bump, quad_partition_strict

REL_NAMES = ("R", "S", "T")


class RefinedTriangleEngine(MaintenanceKernel):
    """Triangle count over four-way partitioned relations."""

    REL = REL_NAMES

    def __init__(self, eps: float = 0.5, counters: OpCounters | None = None):
        super().__init__(REL_NAMES, (2, 2, 2), eps, counters)
        self.parts = [QuadPartition() for _ in range(3)]
        # wedges[i][(x, z)] = sum_y hl_i(x, y) * lh_{i+1}(y, z)
        self.wedges: list[dict] = [{}, {}, {}]

    def space_used(self) -> int:
        return (sum(q.total_size() for q in self.parts)
                + sum(len(w) for w in self.wedges))

    # -- update procedures --------------------------------------------------

    def _delta_sum(self, i: int, x, y) -> int:
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        nxt = self.parts[i1].parts
        snd = self.parts[i2].parts
        acc = 0

        n_hh, n_hl, n_lh, n_ll = (nxt["hh"].entries, nxt["hl"].entries,
                                  nxt["lh"].entries, nxt["ll"].entries)
        s_hh, s_hl, s_lh, s_ll = (snd["hh"].entries, snd["hl"].entries,
                                  snd["lh"].entries, snd["ll"].entries)

        # next heavy on join var, second heavy on own key
        for second in (snd["hh"], snd["hl"]):
            posts = second.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                se = second.entries
                for u in posts:
                    z = u[0]
                    ms = n_hh.get((y, z), 0) + n_hl.get((y, z), 0)
                    if ms:
                        acc += ms * se[u]

        # next heavy-heavy, second light on own key
        posts = nxt["hh"].indexes[IDX0].get(y)
        if posts:
            c.iterations += len(posts)
            for u in posts:
                z = u[1]
                mt = s_ll.get((z, x), 0) + s_lh.get((z, x), 0)
                if mt:
                    acc += n_hh[u] * mt

        # next heavy-light, second light-light
        posts = snd["ll"].indexes[IDX1].get(x)
        if posts:
            c.iterations += len(posts)
            for u in posts:
                ms = n_hl.get((y, u[0]))
                if ms:
                    acc += ms * s_ll[u]

        # next heavy-light, second light-heavy: the wedge
        c.lookups += 1
        acc += self.wedges[i1].get((y, x), 0)

        # next light, second heavy: smaller side
        if self.eps <= 0.5:
            for nxt_rel in (nxt["lh"], nxt["ll"]):
                posts = nxt_rel.indexes[IDX0].get(y)
                if posts:
                    c.iterations += len(posts)
                    ne = nxt_rel.entries
                    for u in posts:
                        z = u[1]
                        mt = s_hh.get((z, x), 0) + s_hl.get((z, x), 0)
                        if mt:
                            acc += ne[u] * mt
        else:
            for second in (snd["hh"], snd["hl"]):
                posts = second.indexes[IDX1].get(x)
                if posts:
                    c.iterations += len(posts)
                    se = second.entries
                    for u in posts:
                        z = u[0]
                        ms = n_lh.get((y, z), 0) + n_ll.get((y, z), 0)
                        if ms:
                            acc += ms * se[u]

        # next light, second light
        for nxt_rel in (nxt["lh"], nxt["ll"]):
            posts = nxt_rel.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                ne = nxt_rel.entries
                for u in posts:
                    z = u[1]
                    mt = s_ll.get((z, x), 0) + s_lh.get((z, x), 0)
                    if mt:
                        acc += ne[u] * mt
        return acc

    def apply_update(self, rel, lab: str, t: tuple, m: int) -> int:
        """Apply a delta routed to part ``lab``; returns the count change."""
        i = self._index[rel]
        x, y = t
        c = self.counters
        dq = m * self._delta_sum(i, x, y)
        self.q += dq

        i1 = i - 2 if i >= 2 else i + 1
        i2 = i - 1 if i >= 1 else i + 2
        if lab == "hl":
            w = self.wedges[i]
            src = self.parts[i1].parts["lh"]
            posts = src.indexes[IDX0].get(y)
            if posts:
                c.iterations += len(posts)
                se = src.entries
                for u in posts:
                    bump(w, (x, u[1]), m * se[u])
        elif lab == "lh":
            w = self.wedges[i2]
            src = self.parts[i2].parts["hl"]
            posts = src.indexes[IDX1].get(x)
            if posts:
                c.iterations += len(posts)
                se = src.entries
                for u in posts:
                    bump(w, (u[0], y), m * se[u])

        new = self.parts[i].parts[lab].upsert(t, m)
        self.db_size += (1 if new == m else 0) - (1 if new == 0 else 0)
        return dq

    def route(self, i: int, t: tuple) -> str:
        self.counters.lookups += 1
        return self.parts[i].route(t, self.eps == 0.0)

    def rebuild_views(self) -> None:
        self.wedges = [self._build_wedge(i) for i in range(3)]

    def _build_wedge(self, i: int) -> dict:
        # the hl side's scan per entry is already capped by both exponents
        c = self.counters
        i1 = i - 2 if i >= 2 else i + 1
        h = self.parts[i].parts["hl"]
        l = self.parts[i1].parts["lh"]
        w: dict = {}
        if not h.entries or not l.entries:
            return w
        l_idx = l.indexes[IDX0]
        le = l.entries
        for t, mh in h.entries.items():
            posts = l_idx.get(t[1])
            if posts:
                c.iterations += len(posts)
                x = t[0]
                for u in posts:
                    bump(w, (x, u[1]), mh * le[u])
        return w

    @classmethod
    def preprocess(cls, db: dict, eps: float = 0.5,
                   counters: OpCounters | None = None) -> "RefinedTriangleEngine":
        eng = cls(eps, counters)
        rels = eng._load(db)
        theta = eng._theta()
        eng.parts = [quad_partition_strict(r, theta) for r in rels]
        eng.rebuild_views()
        q = 0
        for part in eng.parts[0].parts.values():
            for t, m in part.entries.items():
                q += m * eng._delta_sum(0, t[0], t[1])
        eng.q = q
        return eng

    def recompute_wedge(self, i: int) -> dict:
        return self._uncounted(self._build_wedge, i)
